//! CRC-32 (IEEE 802.3, the polynomial used by zip/gzip/PNG), table-driven,
//! eight bytes per step ("slicing-by-8").
//!
//! Each section frame carries the checksum of its payload so a damaged
//! snapshot is rejected with [`crate::WireError::CrcMismatch`] instead of
//! decoding into garbage. Table `k` holds the CRC of a byte followed by
//! `k` zero bytes, so the eight lookups of one step are independent of
//! each other and only the final XOR chains to the next step — the
//! byte-at-a-time loop chains every lookup. The tables (8 KB) are computed
//! at compile time — no runtime initialization, no dependencies.

/// Reflected polynomial of CRC-32/ISO-HDLC.
const POLY: u32 = 0xedb8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// The CRC-32 of `bytes` (initial value `0xffff_ffff`, final XOR-out).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let low = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = TABLES[7][(low & 0xff) as usize]
            ^ TABLES[6][((low >> 8) & 0xff) as usize]
            ^ TABLES[5][((low >> 16) & 0xff) as usize]
            ^ TABLES[4][(low >> 24) as usize]
            ^ TABLES[3][chunk[4] as usize]
            ^ TABLES[2][chunk[5] as usize]
            ^ TABLES[1][chunk[6] as usize]
            ^ TABLES[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc ^ 0xffff_ffff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The CRC-32/ISO-HDLC check value from the catalogue of
        // parametrised CRC algorithms.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xe8b7_be43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn every_length_and_alignment_matches_the_bytewise_definition() {
        // The definition, one byte per step: what the sliced loop must
        // equal whatever the split between whole steps and remainder.
        fn bytewise(bytes: &[u8]) -> u32 {
            let mut crc = 0xffff_ffffu32;
            for &b in bytes {
                crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
            }
            crc ^ 0xffff_ffff
        }
        let data: Vec<u8> = (0..97u32).map(|i| (i * 151 + 13) as u8).collect();
        for start in 0..9 {
            for end in start..data.len() {
                assert_eq!(
                    crc32(&data[start..end]),
                    bytewise(&data[start..end]),
                    "bytes {start}..{end}"
                );
            }
        }
    }

    #[test]
    fn one_bit_flips_change_the_sum() {
        let base = crc32(b"surveyor wire");
        let mut bytes = b"surveyor wire".to_vec();
        for i in 0..bytes.len() {
            bytes[i] ^= 0x01;
            assert_ne!(crc32(&bytes), base, "flip at byte {i} went unnoticed");
            bytes[i] ^= 0x01;
        }
    }
}
