//! FORMAT.md's worked example is executable: the hexdump printed in the
//! spec must be byte-for-byte what the encoder produces for the example
//! snapshot, and decoding the spec's bytes must reproduce the example.
//! If the encoder changes, this test fails until the spec is updated —
//! the byte tables in FORMAT.md can never silently drift.

use surveyor_wire::{
    decode, encode, ModelRow, PairRow, Snapshot, SnapshotEntity, SnapshotProperty, SnapshotType,
};

/// The snapshot FORMAT.md walks through byte by byte. Every float is
/// exactly representable so the dump is stable across platforms.
fn worked_example() -> Snapshot {
    Snapshot {
        properties: vec![SnapshotProperty {
            adverbs: vec!["very".into()],
            adjective: "cute".into(),
        }],
        types: vec![SnapshotType {
            name: "animal".into(),
            head_nouns: vec!["animal".into()],
            context_cues: vec![],
        }],
        entities: vec![
            SnapshotEntity {
                name: "Kitten".into(),
                aliases: vec!["kitty".into()],
                type_index: 0,
                attributes: vec![("legs".into(), 4.0)],
            },
            SnapshotEntity {
                name: "Tiger".into(),
                aliases: vec![],
                type_index: 0,
                attributes: vec![],
            },
        ],
        sample_size: 2,
        rows: vec![PairRow {
            entity: 0,
            property: 0,
            positive: 3,
            negative: 1,
            documents: vec![7, 1 << 32 | 2],
        }],
        models: vec![ModelRow {
            type_index: 0,
            property: 0,
            p_agree: 0.9,
            rate_pos: 4.0,
            rate_neg: 1.0,
            iterations: 2,
            converged: 0,
            log_likelihood: -1.5,
        }],
        incremental: None,
    }
}

/// Canonical `offset  hex-bytes  |ascii|` dump, 16 bytes per line —
/// the exact text FORMAT.md embeds.
fn hexdump(bytes: &[u8]) -> String {
    let mut out = String::new();
    for (line, chunk) in bytes.chunks(16).enumerate() {
        out.push_str(&format!("{:08x}  ", line * 16));
        for (i, byte) in chunk.iter().enumerate() {
            out.push_str(&format!("{byte:02x} "));
            if i == 7 {
                out.push(' ');
            }
        }
        for i in chunk.len()..16 {
            out.push_str("   ");
            if i == 7 {
                out.push(' ');
            }
        }
        out.push_str(" |");
        for &byte in chunk {
            out.push(if (0x20..0x7f).contains(&byte) {
                byte as char
            } else {
                '.'
            });
        }
        out.push_str("|\n");
    }
    out
}

/// The hexdump block between the spec's `hexdump` markers.
fn doc_hexdump() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../FORMAT.md");
    let doc = std::fs::read_to_string(path).expect("FORMAT.md exists beside the workspace root");
    let start = doc
        .find("<!-- hexdump:start -->")
        .expect("FORMAT.md has a hexdump:start marker");
    let end = doc
        .find("<!-- hexdump:end -->")
        .expect("FORMAT.md has a hexdump:end marker");
    let block = &doc[start..end];
    let fence_open = block.find("```text").expect("hexdump is a ```text fence") + "```text\n".len();
    let fence_close = block[fence_open..]
        .find("```")
        .expect("hexdump fence closes");
    block[fence_open..fence_open + fence_close].to_owned()
}

/// Parses the dump back into bytes (drops offsets and the ASCII gutter).
fn parse_hexdump(dump: &str) -> Vec<u8> {
    let mut bytes = Vec::new();
    for line in dump.lines() {
        let Some(rest) = line.split_once("  ").map(|(_, r)| r) else {
            continue;
        };
        let hex = rest.split('|').next().unwrap_or("");
        for token in hex.split_whitespace() {
            bytes.push(u8::from_str_radix(token, 16).expect("hex byte"));
        }
    }
    bytes
}

#[test]
fn doc_hexdump_is_exactly_what_the_encoder_produces() {
    let expected = hexdump(&encode(&worked_example()));
    let documented = doc_hexdump();
    assert_eq!(
        documented, expected,
        "FORMAT.md's worked hexdump no longer matches the encoder — \
         update the spec's example (and its byte tables) together with \
         the format change"
    );
}

#[test]
fn doc_hexdump_decodes_back_to_the_worked_example() {
    let bytes = parse_hexdump(&doc_hexdump());
    let snapshot = decode(&bytes).expect("the spec's bytes are a valid snapshot");
    assert_eq!(snapshot, worked_example());
}
