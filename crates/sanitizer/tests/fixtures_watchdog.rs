//! Hold-time watchdog fixture. Lives alone in this binary because the
//! watchdog threshold (`DOEM_SANITIZE_HOLD_MS`) is read once per process
//! and must be lowered *before* the sanitizer starts.

use std::panic::Location;
use std::time::{Duration, Instant};

use sanitizer::{FindingKind, LockTag};

#[test]
fn overlong_hold_trips_the_watchdog() {
    // Must precede enable(): the watchdog caches the threshold on start.
    std::env::set_var("DOEM_SANITIZE_HOLD_MS", "100");
    sanitizer::enable();

    // The hooks a lock wrapper calls around a hold, without the lock.
    let tag = LockTag::new();
    sanitizer::after_lock(&tag, Location::caller());
    // Poll rather than sleep a fixed time: the watchdog scans every 50 ms,
    // so the finding lands shortly after the 100 ms threshold.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut tripped = false;
    while Instant::now() < deadline {
        if sanitizer::findings()
            .iter()
            .any(|f| f.kind == FindingKind::HoldTime && f.message.contains("fixtures_watchdog"))
        {
            tripped = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    sanitizer::on_unlock(&tag);
    assert!(
        tripped,
        "expected a HoldTime finding within 5s, got: {:?}",
        sanitizer::findings()
    );
}
