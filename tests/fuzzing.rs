//! Fuzz-style robustness tests: arbitrary inputs must produce errors, not
//! panics, at every parsing/decoding boundary.

use std::io::Cursor;

use sma_server::proto::{read_frame, take_frame, ProtoError};
use sma_server::{Response, Statement, Status, MAX_FRAME_BYTES};
use smadb::sma::parse::parse_define_sma;
use smadb::storage::{MemStore, PageStore, SlottedPage, PAGE_SIZE};
use smadb::types::{row, Column, DataType, Date, Decimal, Schema, StdRng};

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("L_SHIPDATE", DataType::Date),
        Column::new("L_DISCOUNT", DataType::Decimal),
        Column::new("L_COMMENT", DataType::Str),
    ])
}

/// A random string mixing SQL-ish tokens, punctuation, and oddball chars.
fn random_text(rng: &mut StdRng, max_len: usize) -> String {
    const CHARS: &[char] = &[
        'a', 'z', 'A', 'Z', '0', '9', ' ', '\t', '\n', '(', ')', '*', ',', '.', ';', '\'', '"',
        '-', '+', '/', '\\', '_', '%', 'é', '☃', '\0',
    ];
    let n = rng.random_range(0..=max_len);
    (0..n)
        .map(|_| CHARS[rng.random_range(0..CHARS.len())])
        .collect()
}

/// The `define sma` parser never panics on arbitrary input.
#[test]
fn parser_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xF022_0001);
    let s = schema();
    for _ in 0..256 {
        let input = random_text(&mut rng, 200);
        let _ = parse_define_sma(&input, &s);
    }
}

/// The parser never panics on near-miss SQL either.
#[test]
fn parser_never_panics_on_sqlish() {
    const AGGS: &[&str] = &["min", "max", "sum", "count", "avg", "median"];
    const ARGS: &[&str] = &["*", "L_SHIPDATE", "L_DISCOUNT", "NOPE", "1 + 2", "(("];
    const TAILS: &[&str] = &[
        "",
        " group by L_SHIPDATE",
        " group by",
        " order by X",
        " , Y",
    ];
    let mut rng = StdRng::seed_from_u64(0xF022_0002);
    let s = schema();
    for _ in 0..256 {
        let name: String = (0..rng.random_range(1..=8usize))
            .map(|_| (b'a' + rng.random_range(0..26u8)) as char)
            .collect();
        let agg = AGGS[rng.random_range(0..AGGS.len())];
        let arg = ARGS[rng.random_range(0..ARGS.len())];
        let tail = TAILS[rng.random_range(0..TAILS.len())];
        let stmt = format!("define sma {name} select {agg}({arg}) from LINEITEM{tail}");
        let _ = parse_define_sma(&stmt, &s);
    }
}

/// Tuple decoding never panics on arbitrary bytes.
#[test]
fn row_decode_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xF022_0003);
    let s = schema();
    for _ in 0..256 {
        let n = rng.random_range(0..200usize);
        let bytes: Vec<u8> = (0..n).map(|_| rng.random_range(0..=255u8)).collect();
        let _ = row::decode(&s, &bytes);
    }
}

/// Page validation never panics on arbitrary images.
#[test]
fn page_from_bytes_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xF022_0004);
    for _ in 0..256 {
        let mut image = vec![0u8; PAGE_SIZE];
        for b in image.iter_mut() {
            *b = rng.random_range(0..=255u8);
        }
        let corrupt_at = rng.random_range(0..64usize);
        image[corrupt_at.min(PAGE_SIZE - 1)] = rng.random_range(0..=255u8);
        if let Ok(page) = SlottedPage::from_bytes(&image) {
            // A page that validates must be safely iterable.
            for (_, img) in page.iter() {
                let _ = img.len();
            }
        }
    }
}

/// SMA deserialization never panics on corrupted stores.
#[test]
fn sma_load_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xF022_0005);
    for _ in 0..256 {
        let n = rng.random_range(0..PAGE_SIZE);
        let mut store = MemStore::new();
        let no = store.allocate().unwrap();
        let mut page = [0u8; PAGE_SIZE];
        for b in page[..n].iter_mut() {
            *b = rng.random_range(0..=255u8);
        }
        store.write_page(no, &page).unwrap();
        let _ = smadb::sma::load_sma(&store, no);
    }
}

#[test]
fn decode_survives_hostile_string_lengths() {
    // A crafted image whose string length prefix points past the buffer.
    let s = schema();
    let t = vec![
        smadb::types::Value::Date(Date::parse("1997-01-01").unwrap()),
        smadb::types::Value::Decimal(Decimal::ZERO),
        smadb::types::Value::Str("hi".into()),
    ];
    let mut buf = Vec::new();
    row::encode(&s, &t, &mut buf).unwrap();
    // Inflate the string length field (bitmap 1 byte + date 4 + decimal 8 = offset 13).
    buf[13] = 0xFF;
    buf[14] = 0xFF;
    assert!(row::decode(&s, &buf).is_err());
}

/// Inputs per wire-boundary fuzz loop.
const WIRE_CASES: usize = 10_000;

/// `n` seeded random bytes.
fn random_bytes(rng: &mut StdRng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.random_range(0..=255u8)).collect()
}

/// The statement parser never panics on character soup, including the
/// operator and quote characters its tokenizer special-cases.
#[test]
fn statement_parse_never_panics_on_char_soup() {
    const CHARS: &[char] = &[
        'a', 's', 'K', '0', '9', ' ', '\t', '\n', '(', ')', '*', ',', '.', ';', '\'', '"', '-',
        '+', '_', '<', '>', '=', '!', 'é', '☃', '\0',
    ];
    let mut rng = StdRng::seed_from_u64(0xF022_0006);
    for _ in 0..WIRE_CASES {
        let n = rng.random_range(0..=120usize);
        let input: String = (0..n)
            .map(|_| CHARS[rng.random_range(0..CHARS.len())])
            .collect();
        let _ = Statement::parse(&input);
    }
}

/// The statement parser never panics on shuffled SQL tokens: every
/// keyword, operator and literal shape of its grammar, in any order.
#[test]
fn statement_parse_never_panics_on_sql_token_soup() {
    const TOKENS: &[&str] = &[
        "select",
        "count",
        "min",
        "max",
        "sum",
        "avg",
        "(",
        ")",
        "*",
        ",",
        "from",
        "where",
        "and",
        "between",
        "group",
        "by",
        "L",
        "K",
        "V",
        "insert",
        "into",
        "values",
        "create",
        "table",
        "int",
        "decimal",
        "date",
        "char",
        "str",
        "define",
        "sma",
        "ping",
        "epoch",
        "flush",
        "shutdown",
        "=",
        "<",
        ">",
        "<=",
        ">=",
        "<>",
        "!=",
        "!",
        "'x'",
        "'",
        "''",
        "1994-01-01",
        "17.25",
        "-5",
        "+3",
        "0",
        "4294967296",
        ";",
    ];
    let mut rng = StdRng::seed_from_u64(0xF022_0007);
    for _ in 0..WIRE_CASES {
        let mut input = String::new();
        for _ in 0..rng.random_range(0..=24usize) {
            input.push_str(TOKENS[rng.random_range(0..TOKENS.len())]);
            if rng.random_bool() {
                input.push(' ');
            }
        }
        let _ = Statement::parse(&input);
    }
}

/// Response decoding never panics: random payloads, valid responses
/// with flipped, cut or appended bytes, and hostile count fields. Every
/// unmutated response decodes back to itself.
#[test]
fn response_decode_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xF022_0008);
    let statuses = [
        Status::Ok,
        Status::Degraded,
        Status::Busy,
        Status::Error,
        Status::ShuttingDown,
    ];
    for _ in 0..WIRE_CASES {
        let payload = match rng.random_range(0..3u8) {
            0 => {
                let n = rng.random_range(0..=64usize);
                random_bytes(&mut rng, n)
            }
            1 => {
                let rows = (0..rng.random_range(0..4usize))
                    .map(|_| {
                        (0..rng.random_range(0..4usize))
                            .map(|_| random_text(&mut rng, 12))
                            .collect()
                    })
                    .collect();
                let r = Response {
                    status: statuses[rng.random_range(0..statuses.len())],
                    epoch: rng.next_u64(),
                    info: random_text(&mut rng, 24),
                    rows,
                };
                let mut bytes = r.encode();
                assert_eq!(Response::decode(&bytes).ok(), Some(r));
                match rng.random_range(0..3u8) {
                    0 if !bytes.is_empty() => {
                        let i = rng.random_range(0..bytes.len());
                        bytes[i] ^= 1 << rng.random_range(0..8u32);
                    }
                    1 => bytes.truncate(rng.random_range(0..=bytes.len())),
                    _ => bytes.extend(random_bytes(&mut rng, 3)),
                }
                bytes
            }
            _ => {
                // A valid header, then a row or column count at, over
                // or far beyond the frame bound, with too few bytes after.
                let mut bytes = vec![0u8];
                bytes.extend_from_slice(&7u64.to_le_bytes());
                bytes.extend_from_slice(&0u32.to_le_bytes());
                for _ in 0..rng.random_range(1..=2usize) {
                    let count = match rng.random_range(0..3u8) {
                        0 => MAX_FRAME_BYTES as u32,
                        1 => MAX_FRAME_BYTES as u32 + 1,
                        _ => u32::MAX,
                    };
                    bytes.extend_from_slice(&count.to_le_bytes());
                }
                bytes
            }
        };
        let _ = Response::decode(&payload);
    }
}

/// A frame: `len` as the little-endian header, then `body`.
fn frame(len: u32, body: &[u8]) -> Vec<u8> {
    let mut f = len.to_le_bytes().to_vec();
    f.extend_from_slice(body);
    f
}

/// A header length: small, at the frame bound, just over it, or the
/// largest `u32`.
fn hostile_len(rng: &mut StdRng) -> u32 {
    match rng.random_range(0..4u8) {
        0 => rng.random_range(0..=64u32),
        1 => MAX_FRAME_BYTES as u32,
        2 => MAX_FRAME_BYTES as u32 + 1,
        _ => u32::MAX,
    }
}

/// The server-side frame splitter never panics, refuses every length
/// over the bound, waits for incomplete frames without consuming bytes,
/// and pops exactly one complete frame.
#[test]
fn take_frame_bounds_every_length_prefix() {
    let mut rng = StdRng::seed_from_u64(0xF022_0009);
    for _ in 0..WIRE_CASES {
        let len = hostile_len(&mut rng);
        let have = rng.random_range(0..=80usize);
        let body = random_bytes(&mut rng, have);
        let mut buf = frame(len, &body);
        buf.truncate(rng.random_range(0..=buf.len()));
        let before = buf.clone();
        match take_frame(&mut buf) {
            Err(ProtoError::FrameTooLarge { len: got, max }) => {
                assert_eq!((got, max), (len as usize, MAX_FRAME_BYTES));
                assert!(got > MAX_FRAME_BYTES);
            }
            Err(e) => panic!("unexpected error {e}"),
            Ok(None) => {
                assert!(before.len() < 4 || before.len() < 4 + len as usize);
                assert!(before.len() < 4 || len as usize <= MAX_FRAME_BYTES);
                assert_eq!(buf, before, "an incomplete frame consumes nothing");
            }
            Ok(Some(payload)) => {
                assert_eq!(payload, before[4..4 + len as usize]);
                assert_eq!(buf, before[4 + len as usize..]);
            }
        }
    }
    // A frame exactly at the bound is accepted whole.
    let mut buf = frame(MAX_FRAME_BYTES as u32, &vec![7u8; MAX_FRAME_BYTES]);
    buf.push(1);
    let payload = take_frame(&mut buf).unwrap().unwrap();
    assert_eq!(payload.len(), MAX_FRAME_BYTES);
    assert_eq!(buf, vec![1]);
}

/// The client-side blocking reader never panics, refuses every length
/// over the bound, and reports a short stream as a closed connection.
#[test]
fn read_frame_bounds_every_length_prefix() {
    let mut rng = StdRng::seed_from_u64(0xF022_000A);
    for _ in 0..WIRE_CASES {
        let len = hostile_len(&mut rng);
        let have = rng.random_range(0..=80usize);
        let body = random_bytes(&mut rng, have);
        let mut stream = frame(len, &body);
        stream.truncate(rng.random_range(0..=stream.len()));
        let complete = stream.len() >= 4 && stream.len() - 4 >= len as usize;
        match read_frame(&mut Cursor::new(&stream)) {
            Err(ProtoError::FrameTooLarge { len: got, .. }) => {
                assert!(got > MAX_FRAME_BYTES && got == len as usize);
            }
            Err(ProtoError::ConnectionClosed) => {
                assert!(!complete, "a complete frame must read");
            }
            Err(e) => panic!("unexpected error {e}"),
            Ok(payload) => assert_eq!(payload, stream[4..4 + len as usize]),
        }
    }
    let at_bound = frame(MAX_FRAME_BYTES as u32, &vec![7u8; MAX_FRAME_BYTES]);
    let payload = read_frame(&mut Cursor::new(&at_bound)).unwrap();
    assert_eq!(payload.len(), MAX_FRAME_BYTES);
}
