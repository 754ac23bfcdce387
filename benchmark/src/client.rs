//! The generator's wire client.
//!
//! `serve::WireClient::send` writes the request line and its newline as
//! two separate `write`s. With Nagle's algorithm on, the second segment
//! waits for the first one's ACK, and the server — which cannot answer
//! half a line — delays that ACK: every round trip costs one delayed-ACK
//! timer, 44 ms on loopback, against 0.02 ms when the line goes out in
//! one write (both measured on the reference box). A benchmark driven
//! through it would time the TCP stack's timer, so the measured path uses
//! this client: one `write_all` per request, `TCP_NODELAY`, and the
//! crate's own `Response::read_tagged_from` to decode frames. The
//! `serve.tcp.wireclient_ping_us` layer metric keeps `WireClient`'s own
//! round trip on record until a `crates/` change fixes it.

use serve::Response;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Every send and receive is bounded by this; the slowest single request
/// any workload issues takes milliseconds.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One connection to `doem-serve`.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: Vec<u8>,
}

impl Client {
    /// Connect to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            line: Vec::with_capacity(256),
        })
    }

    /// Send one request line (tag it `#<id> ` to pipeline) without waiting.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.line.clear();
        self.line.extend_from_slice(line.as_bytes());
        self.line.push(b'\n');
        self.writer.write_all(&self.line)
    }

    /// Read the next response frame and its tag, if it carries one.
    pub fn recv(&mut self) -> io::Result<(Option<String>, Response)> {
        Response::read_tagged_from(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    /// Send one untagged request and read its response.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<Response> {
        self.send(line)?;
        Ok(self.recv()?.1)
    }
}
