//! `chorel-cli` — an interactive (and scriptable) shell over the whole
//! stack: load textual OEM databases, apply timestamped change sets in the
//! paper's notation, run Lorel/Chorel queries, extract snapshots, diff
//! files, and persist through the Lore store.
//!
//! ```text
//! $ cargo run --bin chorel-cli
//! > load examples/guide.oem          # or: open NAME (from the store)
//! > query select guide.restaurant.name
//! > apply 1Jan97 {updNode(n1, 20)}
//! > query select guide.restaurant.price<upd at T to NV>
//! > snapshot 31Dec96
//! > history
//! > save guide
//! ```
//!
//! Run a script non-interactively: `chorel-cli script.txt`.

use chorel::{run_chorel_parsed, Strategy};
use doem::DoemDatabase;
use oem::{OemDatabase, Timestamp};
use std::io::{BufRead, Write};

struct Shell {
    /// The working database, always held with its full change history.
    doem: DoemDatabase,
    /// The current snapshot of `doem` as a plain graph: where change sets
    /// are validated and update statements compile.
    replica: OemDatabase,
    store: lore::LoreStore,
    strategy: Strategy,
}

impl Shell {
    fn new() -> Shell {
        let empty = OemDatabase::new("db");
        Shell {
            doem: DoemDatabase::from_snapshot(&empty),
            replica: empty,
            store: lore::LoreStore::open(
                std::env::var("CHOREL_STORE").unwrap_or_else(|_| ".chorel-store".to_string()),
            )
            .expect("store directory"),
            strategy: Strategy::Direct,
        }
    }

    fn set_db(&mut self, db: OemDatabase) {
        self.replica = db.clone();
        self.doem = DoemDatabase::from_snapshot(&db);
    }

    fn command(&mut self, line: &str) -> Result<bool, String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("//") {
            return Ok(true);
        }
        let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
        let rest = rest.trim();
        match cmd {
            "help" => {
                println!(
                    "commands:\n\
                     \x20 load FILE            parse a textual OEM file as the working db\n\
                     \x20 open NAME            load db NAME from the store\n\
                     \x20 save NAME            save the working db (with history) to the store\n\
                     \x20 show                 print the working db and its annotations\n\
                     \x20 query Q              run a Lorel/Chorel query\n\
                     \x20 translate Q          show the pure-Lorel translation of Q\n\
                     \x20 apply TS {{ops}}       apply a change set, e.g. apply 1Jan97 {{updNode(n1, 20)}}\n\
                     \x20 update|insert|remove|link …   Lorel update statements\n\
                     \x20 snapshot TS          print the database as of TS\n\
                     \x20 history              print the recorded history\n\
                     \x20 diff FILE            diff the current snapshot against an OEM file\n\
                     \x20 strategy direct|translated   choose the Chorel engine\n\
                     \x20 dot FILE             write the current snapshot as Graphviz\n\
                     \x20 quit"
                );
            }
            "quit" | "exit" => return Ok(false),
            "load" => {
                let text = std::fs::read_to_string(rest).map_err(|e| e.to_string())?;
                let db = oem::parse_text(&text).map_err(|e| e.to_string())?;
                println!("loaded {} ({} objects)", db.name(), db.node_count());
                self.set_db(db);
            }
            "open" => {
                let d = self.store.load_doem(rest).map_err(|e| e.to_string())?;
                self.replica = doem::current_snapshot(&d);
                println!("opened {} ({} annotations)", d.name(), d.annotation_count());
                self.doem = d;
            }
            "save" => {
                self.store
                    .save_doem(rest, &self.doem)
                    .map_err(|e| e.to_string())?;
                println!("saved {rest}");
            }
            "show" => print!("{}", self.doem),
            "query" => {
                let q = lorel::parse_query(rest).map_err(|e| e.to_string())?;
                let r = run_chorel_parsed(&self.doem, &q, self.strategy)
                    .map_err(|e| e.to_string())?;
                println!("{} row(s)", r.len());
                for row in &r.rows {
                    let cols: Vec<String> = row
                        .cols
                        .iter()
                        .map(|(label, b)| match b {
                            lorel::Binding::Node(n) => match self.doem.graph().value(*n) {
                                Ok(v) if v.is_atomic() => format!("{label}={v}"),
                                _ => format!("{label}={n}"),
                            },
                            lorel::Binding::Val(v) => format!("{label}={v}"),
                            lorel::Binding::Missing => format!("{label}=-"),
                        })
                        .collect();
                    println!("  {}", cols.join("  "));
                }
            }
            "translate" => {
                let q = lorel::parse_query(rest).map_err(|e| e.to_string())?;
                let t = chorel::translate(&q, self.doem.name()).map_err(|e| e.to_string())?;
                println!("{t}");
            }
            "update" | "insert" | "remove" | "link" => {
                // Lorel update statements compile to basic change ops and
                // fold into the history at the current wall-clock-free
                // "now" (the latest recorded time plus a minute, or 1Jan97).
                // `replica` is the current snapshot: `apply_set` keeps it so.
                let stmt = lorel::parse_update(line).map_err(|e| e.to_string())?;
                let compiled =
                    lorel::compile_update(&self.replica, &stmt).map_err(|e| e.to_string())?;
                if compiled.changes.is_empty() {
                    println!("no matching bindings; nothing to do");
                    return Ok(true);
                }
                let at = self
                    .doem
                    .timestamps()
                    .last()
                    .copied()
                    .unwrap_or_else(|| "1Jan97".parse().expect("literal"))
                    .plus_minutes(1);
                doem::apply_set(&mut self.doem, &mut self.replica, &compiled.changes, at)
                    .map_err(|e| e.to_string())?;
                println!("applied {} op(s) at {at}", compiled.changes.len());
            }
            "apply" => {
                let (ts_text, ops_text) = rest
                    .split_once(' ')
                    .ok_or("usage: apply TIMESTAMP {ops}")?;
                let at: Timestamp = ts_text.trim().parse().map_err(|e| format!("{e}"))?;
                let set = oem::parse_change_set(ops_text.trim()).map_err(|e| e.to_string())?;
                doem::apply_set(&mut self.doem, &mut self.replica, &set, at)
                    .map_err(|e| e.to_string())?;
                println!("applied {} op(s) at {at}", set.len());
            }
            "snapshot" => {
                let at: Timestamp = rest.parse().map_err(|e| format!("{e}"))?;
                print!("{}", doem::snapshot_at(&self.doem, at));
            }
            "history" => {
                let h = doem::extract_history(&self.doem).map_err(|e| e.to_string())?;
                if h.is_empty() {
                    println!("(no recorded changes)");
                } else {
                    println!("{h}");
                }
            }
            "diff" => {
                let text = std::fs::read_to_string(rest).map_err(|e| e.to_string())?;
                let other = oem::parse_text(&text).map_err(|e| e.to_string())?;
                let current = doem::current_snapshot(&self.doem);
                let marked = oemdiff::markup(&current, &other, oemdiff::MatchMode::Structural)
                    .map_err(|e| e.to_string())?;
                print!("{marked}");
            }
            "strategy" => {
                self.strategy = match rest {
                    "direct" => Strategy::Direct,
                    "translated" => Strategy::Translated,
                    other => return Err(format!("unknown strategy {other:?}")),
                };
                println!("strategy: {rest}");
            }
            "dot" => {
                let current = doem::current_snapshot(&self.doem);
                std::fs::write(rest, oem::to_dot(&current)).map_err(|e| e.to_string())?;
                println!("wrote {rest}");
            }
            other => return Err(format!("unknown command {other:?} (try: help)")),
        }
        Ok(true)
    }
}

fn main() {
    let mut shell = Shell::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let interactive = args.is_empty();

    let input: Box<dyn BufRead> = if let Some(path) = args.first() {
        Box::new(std::io::BufReader::new(
            std::fs::File::open(path).expect("script file"),
        ))
    } else {
        Box::new(std::io::BufReader::new(std::io::stdin()))
    };

    if interactive {
        println!("chorel-cli — type `help` for commands");
        print!("> ");
        std::io::stdout().flush().ok();
    }
    for line in input.lines() {
        let line = line.expect("readable input");
        match shell.command(&line) {
            Ok(true) => {}
            Ok(false) => break,
            Err(msg) => eprintln!("error: {msg}"),
        }
        if interactive {
            print!("> ");
            std::io::stdout().flush().ok();
        }
    }
}
