//! Robustness of the protocol surface: fuzzed request lines and byte
//! streams must never panic the parser, the bounded reader, or the
//! full request handler — malformed input always becomes a typed `ERR`
//! reply, never a crash. Alongside, the [`ServeError`] display strings are
//! pinned to carry their diagnostic context.

use proptest::prelude::*;
use sablock::core::lsh::salsh::SaLshBlockerBuilder;
use sablock::prelude::*;
use sablock::serve::protocol::{handle_line_with, parse_request, read_bounded_line, RequestLimits};

fn builder() -> SaLshBlockerBuilder {
    SaLshBlocker::builder().attributes(["title", "authors"]).qgram(3).rows_per_band(2).bands(4).seed(0xB10C)
}

fn service() -> CandidateService {
    let service =
        CandidateService::new(builder().into_incremental().unwrap(), Schema::shared(["title", "authors"]).unwrap())
            .unwrap();
    service
        .insert_rows(vec![
            vec![Some("semantic blocking study".into()), Some("author0".into())],
            vec![Some("semantic blocking survey".into()), None],
        ])
        .unwrap();
    service
}

/// Verbs the structured fuzz cycles through: every verb a client can send,
/// plus `SAVE`, which is not a verb — no request may make the server write
/// a file at a client-chosen path.
const VERBS: &[&str] =
    &["QUERY", "QUERYK", "INSERT", "REMOVE", "STATS", "SAVE", "CHECKPOINT", "QUIT", "query", "", "NOSUCH"];

/// Almost-valid protocol traffic: a real (or off-by-case) verb with fuzzed
/// tab-separated fields.
fn structured_line(verb_index: usize, fields: &[String]) -> String {
    let mut line = VERBS[verb_index % VERBS.len()].to_string();
    for field in fields {
        line.push('\t');
        line.push_str(field);
    }
    line
}

/// Arbitrary printable lines with tabs sprinkled in (the vendored proptest
/// has no `\PC` class, so the line is assembled from fuzzed bytes).
fn arbitrary_line(bytes: &[u8]) -> String {
    bytes
        .iter()
        .map(|byte| match byte % 97 {
            96 => '\t',
            n => (b' ' + (n % 95)) as char,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parse_request_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..120), width in 0usize..5) {
        let _ = parse_request(&arbitrary_line(&bytes), width);
    }

    #[test]
    fn the_bounded_reader_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        max in 0usize..48,
    ) {
        let len = bytes.len();
        let mut cursor = std::io::Cursor::new(bytes);
        // Drain the stream; every call either yields a line, a typed error
        // (overlong / non-UTF-8), or EOF — and always makes progress.
        for _ in 0..=len {
            if let Ok(None) = read_bounded_line(&mut cursor, max) {
                break;
            }
        }
    }

    #[test]
    fn the_handler_always_answers_structured_lines(
        verb_index in 0usize..VERBS.len(),
        fields in proptest::collection::vec("[ -~]{0,12}", 0..4),
    ) {
        let service = service();
        let line = structured_line(verb_index, &fields);
        let outcome = handle_line_with(&service, &RequestLimits::default(), &line);
        let reply = outcome.reply();
        prop_assert!(
            reply.starts_with("OK") || reply.starts_with("ERR"),
            "unexpected reply {reply:?} for line {line:?}"
        );
    }

    #[test]
    fn the_handler_always_answers_arbitrary_lines(bytes in proptest::collection::vec(any::<u8>(), 0..80)) {
        let line = arbitrary_line(&bytes);
        let service = service();
        let outcome = handle_line_with(&service, &RequestLimits::default(), &line);
        let reply = outcome.reply();
        prop_assert!(
            reply.starts_with("OK") || reply.starts_with("ERR"),
            "unexpected reply {reply:?} for line {line:?}"
        );
    }
}

#[test]
fn error_displays_carry_their_diagnostic_context() {
    let cases: Vec<(ServeError, &[&str])> = vec![
        (ServeError::BadMagic, &["not a sablock snapshot"]),
        (ServeError::UnsupportedVersion { found: 9, supported: 1 }, &["version 9", "v1"]),
        (ServeError::ChecksumMismatch { expected: 0xABCD, found: 0x1234 }, &["000000000000abcd", "0000000000001234"]),
        (ServeError::Corrupt { offset: 42, reason: "impossible length".into() }, &["byte 42", "impossible length"]),
        (
            ServeError::ConfigMismatch { expected: "lsh-a".into(), found: "lsh-b".into() },
            &["'lsh-b'", "'lsh-a'"],
        ),
        (
            ServeError::SchemaMismatch { expected: vec!["title".into()], found: vec!["name".into()] },
            &["title", "name"],
        ),
        (ServeError::Protocol("unknown verb".into()), &["protocol error", "unknown verb"]),
        (ServeError::LineTooLong { limit: 65536 }, &["65536-byte limit"]),
        (ServeError::Overloaded { retry_after_ms: 250 }, &["overloaded", "retry after 250 ms"]),
        (
            ServeError::WriterPoisoned { reason: "injected write failure".into() },
            &["poisoned", "injected write failure", "re-open"],
        ),
        (ServeError::Recovery("the log has a hole".into()), &["unrecoverable", "the log has a hole"]),
        (ServeError::Io(std::io::Error::other("disk on fire")), &["I/O error", "disk on fire"]),
    ];
    for (error, fragments) in cases {
        let rendered = error.to_string();
        for fragment in fragments {
            assert!(rendered.contains(fragment), "display of {error:?} is missing {fragment:?}: {rendered}");
        }
    }
}

#[test]
fn in_memory_checkpoints_are_a_typed_protocol_error() {
    // The fuzz above can hit CHECKPOINT against this in-memory fixture;
    // pin that it answers with the typed refusal rather than anything odd.
    let service = service();
    let outcome = handle_line_with(&service, &RequestLimits::default(), "CHECKPOINT");
    assert_eq!(outcome.reply(), "ERR protocol error: CHECKPOINT requires a durable (WAL-backed) service");
}
