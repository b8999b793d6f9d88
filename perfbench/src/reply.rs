//! Classifying and parsing `sablock-serve` replies.
//!
//! The load generator talks through [`sablock::serve::Client`] with a single
//! attempt per request, so every reply kind stays visible to the failure
//! accounting: `OK`, `OK DEGRADED`, `ERR`, a `RETRY` shed (surfaced by the
//! client as [`ServeError::Overloaded`]) and transport errors.

use sablock::serve::client::Response;
use sablock::serve::ServeError;

/// What one request came back with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// `OK …`: the payload after `OK `.
    Ok(String),
    /// `OK DEGRADED …`: an unranked answer to a ranked query.
    Degraded,
    /// `ERR …`: the server refused the request.
    Err(String),
    /// `RETRY <ms>`: shed before the request was read.
    Retry,
    /// The connection failed; a written request's outcome is unknown.
    Transport(String),
}

/// Maps a [`Client::request`](sablock::serve::Client::request) result onto
/// an [`Outcome`].
pub fn classify(result: Result<Response, ServeError>) -> Outcome {
    match result {
        Ok(Response::Ok(payload)) => Outcome::Ok(payload),
        Ok(Response::Degraded(_)) => Outcome::Degraded,
        Ok(Response::Err(reason)) => Outcome::Err(reason),
        Err(ServeError::Overloaded { .. }) => Outcome::Retry,
        Err(error) => Outcome::Transport(error.to_string()),
    }
}

/// Per-phase request accounting: every request attempted lands in exactly
/// one bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Answered `OK`.
    pub ok: u64,
    /// Answered `ERR`.
    pub err: u64,
    /// Shed with `RETRY`.
    pub retry: u64,
    /// Answered `OK DEGRADED`.
    pub degraded: u64,
    /// Lost to a transport error.
    pub transport: u64,
}

impl Tally {
    /// Counts one outcome.
    pub fn note(&mut self, outcome: &Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok(_) => self.ok += 1,
            Outcome::Degraded => self.degraded += 1,
            Outcome::Err(_) => self.err += 1,
            Outcome::Retry => self.retry += 1,
            Outcome::Transport(_) => self.transport += 1,
        }
    }

    /// Requests that did not get the answer asked for.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    /// Adds another tally into this one.
    pub fn include(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.err += other.err;
        self.retry += other.retry;
        self.degraded += other.degraded;
        self.transport += other.transport;
    }
}

fn number<T: std::str::FromStr>(field: Option<&str>) -> Option<T> {
    field?.parse().ok()
}

/// The ids of a `QUERY` payload: `<n> <id>…` with exactly `n` ids.
pub fn parse_ids(payload: &str) -> Option<Vec<u32>> {
    let mut fields = payload.split_ascii_whitespace();
    let n: usize = number(fields.next())?;
    let ids = fields
        .map(str::parse)
        .collect::<Result<Vec<u32>, _>>()
        .ok()?;
    (ids.len() == n).then_some(ids)
}

/// The ranking of a `QUERYK` payload: `<n> <id:score>…` with exactly `n`
/// entries.
pub fn parse_scored(payload: &str) -> Option<Vec<(u32, f64)>> {
    let mut fields = payload.split_ascii_whitespace();
    let n: usize = number(fields.next())?;
    let scored = fields
        .map(|field| {
            let (id, score) = field.split_once(':')?;
            Some((id.parse().ok()?, score.parse().ok()?))
        })
        .collect::<Option<Vec<(u32, f64)>>>()?;
    (scored.len() == n).then_some(scored)
}

/// An acknowledged write: the record it touched and the epoch that
/// published it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// The inserted record's id, or the removed one.
    pub id: u32,
    /// The epoch the write was published in.
    pub epoch: u64,
}

/// An `INSERT` payload: `<id> epoch <e>`.
pub fn parse_insert(payload: &str) -> Option<Ack> {
    let mut fields = payload.split_ascii_whitespace();
    let id = number(fields.next())?;
    (fields.next()? == "epoch").then_some(())?;
    let epoch = number(fields.next())?;
    fields.next().is_none().then_some(Ack { id, epoch })
}

/// A `REMOVE` payload: `removed <id> epoch <e>` (or `absent …`, returned
/// with `false`).
pub fn parse_remove(payload: &str) -> Option<(bool, Ack)> {
    let (word, rest) = payload.split_once(' ')?;
    let live = match word {
        "removed" => true,
        "absent" => false,
        _ => return None,
    };
    Some((live, parse_insert(rest)?))
}

/// The fields of a `STATS` payload the benchmark gates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stats {
    /// The published epoch.
    pub epoch: u64,
    /// Records ever ingested.
    pub records: u64,
    /// Records not tombstoned.
    pub live: u64,
    /// The running |Γ|.
    pub pairs: u64,
    /// Connections shed so far.
    pub shed: u64,
    /// Ranked queries degraded so far.
    pub degraded: u64,
}

/// A `STATS` payload: `epoch <e> records <n> live <l> … pairs <Γ> shed <s>
/// degraded <d> …` — named fields, read by name.
pub fn parse_stats(payload: &str) -> Option<Stats> {
    let fields: Vec<&str> = payload.split_ascii_whitespace().collect();
    let field = |name: &str| -> Option<u64> {
        let at = fields.iter().position(|&f| f == name)?;
        number(fields.get(at + 1).copied())
    };
    Some(Stats {
        epoch: field("epoch")?,
        records: field("records")?,
        live: field("live")?,
        pairs: field("pairs")?,
        shed: field("shed")?,
        degraded: field("degraded")?,
    })
}

/// A `CHECKPOINT` payload: `checkpoint <epoch>`.
pub fn parse_checkpoint(payload: &str) -> Option<u64> {
    number(payload.strip_prefix("checkpoint "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reply_kind_is_classified() {
        assert_eq!(
            classify(Ok(Response::Ok("2 0 1".into()))),
            Outcome::Ok("2 0 1".into())
        );
        assert_eq!(
            classify(Ok(Response::Degraded("2 0 1".into()))),
            Outcome::Degraded
        );
        assert_eq!(
            classify(Ok(Response::Err("bad".into()))),
            Outcome::Err("bad".into())
        );
        assert_eq!(
            classify(Err(ServeError::Overloaded {
                retry_after_ms: 100
            })),
            Outcome::Retry
        );
        let lost = classify(Err(ServeError::Io(std::io::Error::other("reset"))));
        assert!(
            matches!(lost, Outcome::Transport(ref why) if why.contains("reset")),
            "{lost:?}"
        );
    }

    #[test]
    fn tallies_count_each_outcome_once() {
        let mut tally = Tally::default();
        for outcome in [
            Outcome::Ok(String::new()),
            Outcome::Ok(String::new()),
            Outcome::Degraded,
            Outcome::Err("x".into()),
            Outcome::Retry,
            Outcome::Transport("y".into()),
        ] {
            tally.note(&outcome);
        }
        let expected = Tally {
            attempted: 6,
            ok: 2,
            err: 1,
            retry: 1,
            degraded: 1,
            transport: 1,
        };
        assert_eq!(tally, expected);
        assert_eq!(tally.failed(), 4, "degraded answers count as failed");
        let mut total = Tally::default();
        total.include(&tally);
        total.include(&tally);
        assert_eq!(total.attempted, 12);
        assert_eq!(total.failed(), 8);
    }

    #[test]
    fn query_payloads_parse_and_check_their_count() {
        assert_eq!(parse_ids("3 4 9 12"), Some(vec![4, 9, 12]));
        assert_eq!(parse_ids("0"), Some(vec![]));
        assert_eq!(parse_ids("2 4"), None, "count disagrees");
        assert_eq!(parse_ids("1 x"), None);
        assert_eq!(parse_ids(""), None);
        assert_eq!(
            parse_scored("2 7:0.9000 3:0.5000"),
            Some(vec![(7, 0.9), (3, 0.5)])
        );
        assert_eq!(parse_scored("1 7"), None, "missing score");
        assert_eq!(parse_scored("2 7:0.9"), None, "count disagrees");
    }

    #[test]
    fn write_payloads_parse() {
        assert_eq!(parse_insert("41 epoch 7"), Some(Ack { id: 41, epoch: 7 }));
        assert_eq!(parse_insert("41 epoch"), None);
        assert_eq!(parse_insert("41 epoch 7 extra"), None);
        assert_eq!(parse_insert("41 era 7"), None);
        assert_eq!(
            parse_remove("removed 3 epoch 9"),
            Some((true, Ack { id: 3, epoch: 9 }))
        );
        assert_eq!(
            parse_remove("absent 3 epoch 10"),
            Some((false, Ack { id: 3, epoch: 10 }))
        );
        assert_eq!(parse_remove("gone 3 epoch 10"), None);
        assert_eq!(parse_checkpoint("checkpoint 12"), Some(12));
        assert_eq!(parse_checkpoint("checkpoint"), None);
    }

    #[test]
    fn stats_fields_are_read_by_name() {
        let payload =
            "epoch 5 records 40 live 38 tombstoned 2 compactions 0 pairs 991 shed 0 degraded 1 \
                       wal 3:2048 q50us 120 q99us 800";
        let stats = parse_stats(payload).unwrap();
        assert_eq!(
            stats,
            Stats {
                epoch: 5,
                records: 40,
                live: 38,
                pairs: 991,
                shed: 0,
                degraded: 1
            }
        );
        assert_eq!(parse_stats("epoch 5 records 40"), None, "missing fields");
        assert_eq!(
            parse_stats("epoch x records 40 live 1 pairs 2 shed 0 degraded 0"),
            None
        );
    }
}
