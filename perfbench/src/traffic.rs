//! The closed-loop load generator's building blocks: one
//! [`sablock::serve::Client`] per connection, one client thread each
//! (through [`sablock::core::parallel::join_all`]), each sending its next
//! request only after the previous reply arrived.

use std::time::{Duration, Instant};

use sablock::serve::{Client, RetryPolicy};

use crate::reply::{classify, Outcome};

/// Connections (and client threads) of the write phase: two writers give
/// the WAL's group commit something to coalesce.
pub const CONNECTIONS: usize = 2;

/// A client that makes exactly one attempt per request, so `RETRY` sheds
/// and refused connections reach the failure accounting instead of being
/// retried away. A request already written is never resent.
pub fn client(addr: &str) -> Client {
    let policy = RetryPolicy {
        attempts: 1,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(1),
    };
    Client::new(addr, policy).with_timeout(Duration::from_secs(30))
}

/// One protocol line: the verb, then the row's values tab-separated (a
/// missing value is an empty field).
pub fn line(verb: &str, values: &[Option<String>]) -> String {
    let mut out = String::from(verb);
    for value in values {
        out.push('\t');
        out.push_str(value.as_deref().unwrap_or(""));
    }
    out
}

/// Whether a row can travel in one protocol line.
pub fn sendable(values: &[Option<String>]) -> bool {
    values
        .iter()
        .flatten()
        .all(|value| !value.contains(['\t', '\n', '\r']))
}

/// Sends one request and times its round trip.
pub fn send(client: &mut Client, request: &str) -> (Outcome, Instant, Duration) {
    let started = Instant::now();
    let outcome = classify(client.request(request));
    (outcome, started, started.elapsed())
}

/// Sends one untimed control request (`STATS`, a check query) and returns
/// the `OK` payload.
pub fn ask(client: &mut Client, request: &str) -> crate::Result<String> {
    match send(client, request).0 {
        Outcome::Ok(payload) => Ok(payload),
        other => Err(format!(
            "`{}` was answered with {other:?}",
            request.split('\t').next().unwrap_or_default()
        )
        .into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_tab_separated_with_empty_missing_values() {
        let row = vec![
            Some("a theory".to_string()),
            None,
            Some("smith".to_string()),
        ];
        assert_eq!(line("QUERY", &row), "QUERY\ta theory\t\tsmith");
        assert_eq!(line("QUERYK\t10", &row[..1]), "QUERYK\t10\ta theory");
        assert!(sendable(&row));
        assert!(!sendable(&[Some("a\tb".to_string())]));
        assert!(!sendable(&[Some("a\nb".to_string())]));
    }

    #[test]
    fn a_closed_port_is_counted_not_retried() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let mut lone = client(&addr);
        let (outcome, _, _) = send(&mut lone, "STATS");
        assert_eq!(
            outcome,
            Outcome::Retry,
            "a refused connect surfaces as one shed attempt"
        );
        assert!(ask(&mut lone, "STATS").is_err());
    }
}
