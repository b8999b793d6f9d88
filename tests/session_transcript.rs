//! One protocol transcript over both transports: the same script of
//! requests, run through `serve_session` over in-memory buffers and through
//! a live `serve_tcp` listener, must get byte-identical replies (STATS's
//! latency percentiles masked, since they time real work). The script's
//! unknown verb is `SAVE`, which must not write a file on either transport.
//!
//! All concurrency goes through `sablock::core::parallel::join_all` — the
//! `thread-confinement` lint forbids raw `std::thread` use here just as it
//! does in library code.

use std::io::{Cursor, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use sablock::core::parallel::join_all;
use sablock::prelude::*;
use sablock::serve::protocol::{serve_session, RequestLimits};
use sablock::serve::{serve_tcp, FrontendOptions};

const MAX_LINE_BYTES: usize = 256;

fn service() -> CandidateService {
    let blocker = SaLshBlocker::builder()
        .attributes(["title"])
        .qgram(2)
        .bands(12)
        .rows_per_band(2)
        .seed(0xB10C)
        .into_incremental()
        .unwrap();
    CandidateService::new(blocker, Schema::shared(["title", "authors"]).unwrap()).unwrap()
}

fn limits() -> RequestLimits {
    RequestLimits { max_line_bytes: MAX_LINE_BYTES, ..RequestLimits::default() }
}

/// Two INSERTs, QUERY, QUERYK, REMOVE, `SAVE` (an unknown verb), a
/// non-UTF-8 line, STATS, then an overlong line followed by a request that
/// must never be answered.
fn script(save_path: &Path) -> Vec<u8> {
    let mut script = Vec::new();
    for line in [
        "INSERT\ta theory for record linkage\tfellegi",
        "INSERT\ta theory of record linkage\tsunter",
        "QUERY\ta theory of record linkage",
        "QUERYK\t1\ta theory of record linkage",
        "REMOVE\t0",
        &format!("SAVE\t{}", save_path.display()),
    ] {
        script.extend_from_slice(line.as_bytes());
        script.push(b'\n');
    }
    script.extend_from_slice(b"QUERY\t\xFF\xFE\n");
    script.extend_from_slice(b"STATS\n");
    script.extend_from_slice(&[b'a'; MAX_LINE_BYTES + 1]);
    script.push(b'\n');
    script.extend_from_slice(b"STATS\n");
    script
}

/// The transcript as text, with the values of `q50us` and `q99us` masked.
fn masked(transcript: &[u8]) -> String {
    let text = String::from_utf8(transcript.to_vec()).unwrap();
    let mut out = String::new();
    for line in text.split_inclusive('\n') {
        let mut fields: Vec<&str> = line.split(' ').collect();
        for index in 1..fields.len() {
            if matches!(fields[index - 1], "q50us" | "q99us") {
                fields[index] = if fields[index].ends_with('\n') { "#\n" } else { "#" };
            }
        }
        out.push_str(&fields.join(" "));
    }
    out
}

fn over_buffers(script: &[u8]) -> Vec<u8> {
    let mut replies = Vec::new();
    serve_session(&service(), &limits(), Cursor::new(script), &mut replies).unwrap();
    replies
}

fn over_tcp(script: &[u8]) -> Vec<u8> {
    let service = service();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let options = FrontendOptions { workers: 1, limits: limits(), max_sessions: Some(1), ..FrontendOptions::default() };

    let (service_ref, listener_ref, options_ref) = (&service, &listener, &options);
    type Task<'scope> = Box<dyn FnOnce() -> Vec<u8> + Send + 'scope>;
    let tasks: Vec<Task> = vec![
        Box::new(move || {
            assert_eq!(serve_tcp(service_ref, listener_ref, options_ref).unwrap(), 1);
            Vec::new()
        }),
        Box::new(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            stream.write_all(script).unwrap();
            let mut replies = Vec::new();
            // The server closes the session at the overlong line with the
            // last request unread, which may reset the connection after
            // every reply has arrived.
            if let Err(error) = stream.read_to_end(&mut replies) {
                assert_eq!(error.kind(), ErrorKind::ConnectionReset, "{error}");
            }
            replies
        }),
    ];
    join_all(tasks).pop().unwrap()
}

#[test]
fn one_transcript_is_byte_identical_over_both_transports() {
    let save_path = std::env::temp_dir().join(format!("sablock-transcript-{}.snap", std::process::id()));
    let save_tmp = PathBuf::from(format!("{}.tmp", save_path.display()));
    let script = script(&save_path);

    let buffered = over_buffers(&script);
    assert_eq!(
        masked(&buffered),
        "OK 0 epoch 1\n\
         OK 1 epoch 2\n\
         OK 2 0 1\n\
         OK 1 1:1.0000\n\
         OK removed 0 epoch 3\n\
         ERR protocol error: unknown request verb 'SAVE'\n\
         ERR protocol error: request line is not valid UTF-8\n\
         OK epoch 3 records 2 live 1 tombstoned 1 compactions 12 cow 36 pairs 0 shed 0 degraded 0 wal - \
         q50us # q99us #\n\
         ERR protocol line exceeds the 256-byte limit\n",
        "the overlong line is the last one answered"
    );
    let tcp = over_tcp(&script);
    assert_eq!(masked(&tcp), masked(&buffered), "TCP and in-memory sessions answer alike");
    assert!(
        !save_path.exists() && !save_tmp.exists(),
        "SAVE is an unknown verb and must not write {} or its temp file",
        save_path.display()
    );
}
