//! The output check: a shadow `DoemDatabase` rebuilt in-process from the
//! loaded history plus every acknowledged write in LSN order, against
//! which the server's wire rows are compared byte for byte.

use crate::client::Client;
use crate::script::{Op, Script, DB, FAR_MIN_BACK, NEAR_MAX_BACK};
use crate::wire::AsOfSample;
use chorel::{canonical_row_strings, run_chorel, Strategy};
use doem::{apply_set, snapshot_at, DoemDatabase};
use oem::{parse_change_set, ChangeSet, OemDatabase, Timestamp};
use serve::Response;

/// `AS OF` points probed after the run quiesces, per kind.
const ASOF_POINTS: usize = 4;
/// Texts evaluated at each probed `AS OF` point.
const ASOF_TEXTS: usize = 8;

/// The expected state of the server's `bench` database.
pub struct Shadow {
    doem: DoemDatabase,
    /// Every committed LSN, ascending.
    lsns: Vec<i64>,
}

impl Shadow {
    /// Replay `load` then `acked` (both `(lsn, change set)`, ascending)
    /// onto what `CREATE bench` installs.
    pub fn build(
        load: &[(Timestamp, ChangeSet)],
        acked: impl IntoIterator<Item = (i64, ChangeSet)>,
    ) -> Result<Shadow, String> {
        let mut replica = OemDatabase::new(DB);
        let mut doem = DoemDatabase::from_snapshot(&replica);
        let mut lsns = Vec::with_capacity(load.len());
        let acked = acked
            .into_iter()
            .map(|(lsn, changes)| (Timestamp::from_raw_minutes(lsn), changes));
        for (at, changes) in load.iter().cloned().chain(acked) {
            if lsns.last().is_some_and(|last| *last >= at.raw_minutes()) {
                return Err(format!(
                    "acknowledged LSNs are not strictly increasing at {at}"
                ));
            }
            apply_set(&mut doem, &mut replica, &changes, at).map_err(|e| {
                format!("acknowledged write at {at} does not apply to the shadow: {e}")
            })?;
            lsns.push(at.raw_minutes());
        }
        Ok(Shadow { doem, lsns })
    }

    /// The newest committed LSN.
    pub fn last_lsn(&self) -> i64 {
        *self.lsns.last().expect("the load is never empty")
    }

    /// The rows the server must return for `text` against the current
    /// version.
    pub fn current_rows(&self, text: &str) -> Result<Vec<String>, String> {
        rows_of(&self.doem, text)
    }

    /// The rows the server must return for `text` `AS OF lsn`: the query
    /// over the plain snapshot `O_t(D)`, exactly what both the ring and
    /// the replay fallback evaluate.
    pub fn rows_as_of(&self, lsn: i64, text: &str) -> Result<Vec<String>, String> {
        let snapshot = snapshot_at(&self.doem, Timestamp::from_raw_minutes(lsn));
        rows_of(&DoemDatabase::from_snapshot(&snapshot), text)
    }
}

fn rows_of(d: &DoemDatabase, text: &str) -> Result<Vec<String>, String> {
    let result = run_chorel(d, text, Strategy::Direct).map_err(|e| format!("{text:?}: {e}"))?;
    Ok(canonical_row_strings(d, &result))
}

/// The change sets of the acknowledged writes, paired with their LSNs.
pub fn acked_changes(ops: &[Op], acked: &[(i64, usize)]) -> Result<Vec<(i64, ChangeSet)>, String> {
    acked
        .iter()
        .map(|&(lsn, index)| match &ops[index] {
            Op::Write { changes } => parse_change_set(changes)
                .map(|c| (lsn, c))
                .map_err(|e| format!("op {index}: {e}")),
            other => Err(format!(
                "op {index} was acknowledged as a write but is {other:?}"
            )),
        })
        .collect()
}

fn wire_rows(client: &mut Client, line: &str) -> Result<Vec<String>, String> {
    match client.roundtrip(line) {
        Ok(Response::Rows(rows)) => Ok(rows),
        Ok(other) => Err(format!("{line:?} answered {other:?}")),
        Err(e) => Err(format!("{line:?}: {e}")),
    }
}

fn first_difference(what: &str, got: &[String], want: &[String]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got
        .iter()
        .zip(want)
        .position(|(g, w)| g != w)
        .unwrap_or(got.len().min(want.len()));
    Err(format!(
        "{what}: {} rows over the wire, {} expected; first difference at row {at}: {:?} vs {:?}",
        got.len(),
        want.len(),
        got.get(at),
        want.get(at)
    ))
}

/// What a passed check covered.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checked {
    /// Distinct texts compared against the current version.
    pub current: usize,
    /// `AS OF` answers compared (sampled during the run and probed after).
    pub as_of: usize,
}

/// Compare the server's answer to every distinct text `script` issues —
/// current version — with the shadow's, plus the `AS OF` answers sampled
/// during the run and a probe of near and far points now that the server
/// is quiet. Any mismatch is an error naming the first differing row.
pub fn check_outputs(
    addr: std::net::SocketAddr,
    shadow: &Shadow,
    script: &Script,
    sampled: &[AsOfSample],
    probe_as_of: bool,
) -> Result<Checked, String> {
    let mut client = connect(addr)?;
    match client.roundtrip(&format!("LSN {DB}")) {
        Ok(Response::Ok(msg)) if msg.starts_with(&format!("applied {} ", shadow.last_lsn())) => {}
        other => {
            return Err(format!(
                "LSN {DB} answered {other:?}, expected applied {}",
                shadow.last_lsn()
            ))
        }
    }
    let mut checked = Checked::default();
    let mut used = vec![false; script.texts.len()];
    for op in script.warmup.iter().chain(&script.ops) {
        if let Op::Read { text } | Op::AsOf { text, .. } = op {
            used[*text as usize] = true;
        }
    }
    let issued = || {
        script
            .texts
            .iter()
            .zip(&used)
            .filter(|(_, u)| **u)
            .map(|(t, _)| t)
    };
    for text in issued() {
        let got = wire_rows(&mut client, &format!("QUERY {DB} {text}"))?;
        first_difference(text, &got, &shadow.current_rows(text)?)?;
        checked.current += 1;
    }
    for s in sampled {
        let text = &script.texts[s.text as usize];
        let what = format!("AS OF {} {text} (answered during the run)", s.lsn);
        first_difference(&what, &s.rows, &shadow.rows_as_of(s.lsn, text)?)?;
        checked.as_of += 1;
    }
    if probe_as_of {
        let newest = shadow.lsns.len() - 1;
        let near = (1..=ASOF_POINTS).map(|k| k * NEAR_MAX_BACK as usize / ASOF_POINTS);
        let far = (0..ASOF_POINTS).map(|k| FAR_MIN_BACK as usize + k * 40);
        for back in near.chain(far).filter(|b| *b <= newest) {
            let lsn = shadow.lsns[newest - back];
            let stride = (checked.current / ASOF_TEXTS).max(1);
            for text in issued().skip(back % stride).step_by(stride) {
                let got = wire_rows(&mut client, &format!("QUERY {DB} AS OF {lsn} {text}"))?;
                let what = format!("AS OF {lsn} ({back} behind) {text}");
                first_difference(&what, &got, &shadow.rows_as_of(lsn, text)?)?;
                checked.as_of += 1;
            }
        }
    }
    Ok(checked)
}

/// Connect, with the error spelled out.
pub fn connect(addr: std::net::SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}
