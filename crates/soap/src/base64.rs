//! Base64 codec (RFC 4648, standard alphabet, `=` padding).
//!
//! Used for `xsd:base64Binary` SOAP values and for signature bytes in the
//! SAML layer. Implemented in-tree like everything else in the stack; the
//! E5 ablation compares base64-encoded payload transfer against the paper's
//! escaped-string streaming.
//!
//! There is one encoder ([`Base64Encoder`]) and one decoder
//! ([`Base64Decoder`]); [`encode`] and [`decode`] are single-call wrappers
//! over them, so the one-shot and the streaming paths cannot disagree.
//! Both run a table-driven block kernel over whole groups: the encoder
//! writes each 3-byte group as four digits at once, and the decoder maps
//! each byte of a quad through a 256-entry table and checks all four
//! digits with one OR-mask test. Only what the kernel cannot take — a
//! group split across calls, whitespace, `=` padding, a bad byte — goes
//! through the byte-at-a-time state machine.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// [`DECODE`]'s mark for a byte that is not a base64 digit (`=`,
/// whitespace and everything else). No digit value has this bit set.
const NOT_DIGIT: u8 = 0x80;

/// [`NOT_DIGIT`], short enough to keep [`DECODE`] in 16-byte rows.
const __: u8 = NOT_DIGIT;

/// The digit value of every byte, or [`NOT_DIGIT`].
#[rustfmt::skip]
const DECODE: [u8; 256] = [
    __, __, __, __, __, __, __, __, __, __, __, __, __, __, __, __,
    __, __, __, __, __, __, __, __, __, __, __, __, __, __, __, __,
    __, __, __, __, __, __, __, __, __, __, __, 62, __, __, __, 63,
    52, 53, 54, 55, 56, 57, 58, 59, 60, 61, __, __, __, __, __, __,
    __,  0,  1,  2,  3,  4,  5,  6,  7,  8,  9, 10, 11, 12, 13, 14,
    15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, __, __, __, __, __,
    __, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40,
    41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, __, __, __, __, __,
    __, __, __, __, __, __, __, __, __, __, __, __, __, __, __, __,
    __, __, __, __, __, __, __, __, __, __, __, __, __, __, __, __,
    __, __, __, __, __, __, __, __, __, __, __, __, __, __, __, __,
    __, __, __, __, __, __, __, __, __, __, __, __, __, __, __, __,
    __, __, __, __, __, __, __, __, __, __, __, __, __, __, __, __,
    __, __, __, __, __, __, __, __, __, __, __, __, __, __, __, __,
    __, __, __, __, __, __, __, __, __, __, __, __, __, __, __, __,
    __, __, __, __, __, __, __, __, __, __, __, __, __, __, __, __,
];

/// 3-byte groups the encode kernel writes per stack block of text.
const ENCODE_BLOCK: usize = 256;

/// Quads the decode kernel decodes per step it grows the output by.
const DECODE_BLOCK: usize = 256;

/// The base64 digit for the low 6 bits of `n`.
fn digit(n: u32) -> u8 {
    ALPHABET.get((n & 63) as usize).copied().unwrap_or(b'A')
}

/// The value of base64 digit `c`, or [`NOT_DIGIT`].
fn value(c: u8) -> u8 {
    DECODE.get(usize::from(c)).copied().unwrap_or(NOT_DIGIT)
}

/// Encode kernel: append the text of whole 3-byte `groups` to `out`. Each
/// group is written as four digits at once into a stack block, and each
/// block is appended with one `push_str`.
fn encode_groups(groups: &[[u8; 3]], out: &mut String) {
    let mut text = [[0u8; 4]; ENCODE_BLOCK];
    for block in groups.chunks(ENCODE_BLOCK) {
        for (&[b0, b1, b2], quad) in block.iter().zip(text.iter_mut()) {
            let n = (u32::from(b0) << 16) | (u32::from(b1) << 8) | u32::from(b2);
            *quad = [digit(n >> 18), digit(n >> 12), digit(n >> 6), digit(n)];
        }
        // Every byte written is an alphabet digit, so the block is ASCII.
        let written = text.get(..block.len()).unwrap_or_default().as_flattened();
        if let Ok(ascii) = std::str::from_utf8(written) {
            out.push_str(ascii);
        }
    }
}

/// Decode kernel: decode the leading quads of `quads` that are four
/// digits each onto `out`, and stop at the first quad holding anything
/// else (whitespace, `=`, a bad byte). Returns the quads decoded.
fn decode_quads(quads: &[[u8; 4]], out: &mut Vec<u8>) -> usize {
    let mut decoded = 0;
    for block in quads.chunks(DECODE_BLOCK) {
        let start = out.len();
        out.resize(start + block.len() * 3, 0);
        let (triples, _) = out
            .get_mut(start..)
            .unwrap_or_default()
            .as_chunks_mut::<3>();
        let mut done = 0;
        for (&[c0, c1, c2, c3], triple) in block.iter().zip(triples) {
            let (d0, d1, d2, d3) = (value(c0), value(c1), value(c2), value(c3));
            if (d0 | d1 | d2 | d3) & NOT_DIGIT != 0 {
                break;
            }
            let n = (u32::from(d0) << 18)
                | (u32::from(d1) << 12)
                | (u32::from(d2) << 6)
                | u32::from(d3);
            *triple = [(n >> 16) as u8, (n >> 8) as u8, n as u8];
            done += 1;
        }
        out.truncate(start + done * 3);
        decoded += done;
        if done < block.len() {
            break;
        }
    }
    decoded
}

/// Encode bytes to base64 text.
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    let mut enc = Base64Encoder::new();
    enc.update(data, &mut out);
    enc.finish(&mut out);
    out
}

/// Incremental base64 encoder: feed input in arbitrary slices (down to
/// one byte) and get exactly the text the one-shot [`encode`] would
/// produce. The only state between calls is a ≤2-byte carry, so the
/// chunked transfer path (E13) encodes a payload of any size with O(chunk)
/// memory: each `update` writes into a caller-owned scratch `String` that
/// is reused across chunks.
#[derive(Debug, Default, Clone)]
pub struct Base64Encoder {
    /// Bytes of an incomplete group; unused slots are zero.
    carry: [u8; 2],
    carry_len: u8,
}

impl Base64Encoder {
    /// A fresh encoder (no pending carry).
    pub fn new() -> Base64Encoder {
        Base64Encoder::default()
    }

    /// Bytes held over from previous `update` calls (0..=2).
    pub fn pending(&self) -> usize {
        usize::from(self.carry_len)
    }

    /// Encode `data`, appending complete 4-char groups to `out` and
    /// carrying up to 2 trailing bytes for the next call.
    pub fn update(&mut self, data: &[u8], out: &mut String) {
        let mut rest = data;
        // Top the carry up to a full 3-byte group first.
        while self.carry_len > 0 {
            let Some((&b, tail)) = rest.split_first() else {
                return;
            };
            rest = tail;
            let [b0, b1] = self.carry;
            if self.carry_len == 1 {
                self.carry = [b0, b];
                self.carry_len = 2;
            } else {
                encode_groups(&[[b0, b1, b]], out);
                *self = Base64Encoder::default();
            }
        }
        out.reserve(rest.len().div_ceil(3) * 4);
        let (groups, tail) = rest.as_chunks::<3>();
        encode_groups(groups, out);
        match *tail {
            [b0] => {
                self.carry = [b0, 0];
                self.carry_len = 1;
            }
            [b0, b1] => {
                self.carry = [b0, b1];
                self.carry_len = 2;
            }
            _ => {}
        }
    }

    /// Flush the final (possibly padded) group. The encoder is reusable
    /// afterwards.
    pub fn finish(&mut self, out: &mut String) {
        let [b0, b1] = self.carry;
        let n = (u32::from(b0) << 16) | (u32::from(b1) << 8);
        if self.carry_len > 0 {
            out.push(char::from(digit(n >> 18)));
            out.push(char::from(digit(n >> 12)));
            if self.carry_len == 2 {
                out.push(char::from(digit(n >> 6)));
            } else {
                out.push('=');
            }
            out.push('=');
        }
        *self = Base64Encoder::default();
    }
}

/// Incremental base64 decoder: feed text in arbitrary slices (whitespace
/// tolerated, splits anywhere — including inside a 4-char quad) and get
/// exactly the bytes the one-shot [`decode`] would produce. State between
/// calls is a ≤3-digit quad carry plus a padding flag.
#[derive(Debug, Default, Clone)]
pub struct Base64Decoder {
    /// Digit values of the current quad.
    quad: [u8; 4],
    quad_len: u8,
    /// Padding characters seen in the current quad (must be trailing).
    pad: u8,
    /// A padded quad was completed: any further non-whitespace is malformed.
    finished: bool,
}

impl Base64Decoder {
    /// A fresh decoder.
    pub fn new() -> Base64Decoder {
        Base64Decoder::default()
    }

    fn flush_quad(&mut self, out: &mut Vec<u8>) -> Option<()> {
        let digits = usize::from(self.quad_len);
        let pad = usize::from(self.pad);
        if digits + pad != 4 || pad > 2 {
            return None;
        }
        let mut n = 0u32;
        for &d in self.quad.get(..digits)? {
            n = (n << 6) | u32::from(d);
        }
        n <<= 6 * pad as u32;
        out.push((n >> 16) as u8);
        if pad < 2 {
            out.push((n >> 8) as u8);
        }
        if pad < 1 {
            out.push(n as u8);
        }
        self.quad_len = 0;
        if pad > 0 {
            self.finished = true;
        }
        self.pad = 0;
        Some(())
    }

    /// Feed one byte through the state machine.
    fn step(&mut self, c: u8, out: &mut Vec<u8>) -> Option<()> {
        if c.is_ascii_whitespace() {
            return Some(());
        }
        if self.finished {
            return None; // data after a padded final quad
        }
        if c == b'=' {
            if self.quad_len < 2 {
                return None; // a quad carries at most 2 pads
            }
            self.pad += 1;
        } else {
            if self.pad > 0 {
                return None; // digit after padding within a quad
            }
            let d = value(c);
            if d & NOT_DIGIT != 0 {
                return None;
            }
            if let Some(slot) = self.quad.get_mut(usize::from(self.quad_len)) {
                *slot = d;
            }
            self.quad_len += 1;
        }
        if usize::from(self.quad_len) + usize::from(self.pad) == 4 {
            self.flush_quad(out)?;
        }
        Some(())
    }

    /// Decode `text`, appending bytes to `out`. Returns `None` (leaving
    /// the decoder poisoned for this stream) on malformed input.
    pub fn update(&mut self, text: &str, out: &mut Vec<u8>) -> Option<()> {
        let mut rest = text.as_bytes();
        out.reserve(rest.len() / 4 * 3);
        loop {
            // At a quad boundary the kernel takes every whole clean quad.
            if self.quad_len == 0 && !self.finished {
                let (quads, _) = rest.as_chunks::<4>();
                let decoded = decode_quads(quads, out);
                rest = rest.get(decoded * 4..).unwrap_or_default();
            }
            let Some((&c, tail)) = rest.split_first() else {
                return Some(());
            };
            rest = tail;
            self.step(c, out)?;
        }
    }

    /// Declare end of input: fails if a quad is left incomplete. The
    /// decoder is reusable afterwards.
    pub fn finish(&mut self) -> Option<()> {
        let clean = self.quad_len == 0 && self.pad == 0;
        *self = Base64Decoder::default();
        clean.then_some(())
    }
}

/// Decode base64 text (whitespace tolerated) to bytes. Returns `None` on
/// malformed input, including anything but whitespace after a padded
/// quad (RFC 4648 §3.3).
pub fn decode(text: &str) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(text.len() / 4 * 3);
    let mut dec = Base64Decoder::new();
    dec.update(text, &mut out)?;
    dec.finish()?;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4648_vectors() {
        assert_eq!(encode(b""), "");
        assert_eq!(encode(b"f"), "Zg==");
        assert_eq!(encode(b"fo"), "Zm8=");
        assert_eq!(encode(b"foo"), "Zm9v");
        assert_eq!(encode(b"foob"), "Zm9vYg==");
        assert_eq!(encode(b"fooba"), "Zm9vYmE=");
        assert_eq!(encode(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn decode_vectors() {
        assert_eq!(decode("Zm9vYmFy").unwrap(), b"foobar");
        assert_eq!(decode("Zg==").unwrap(), b"f");
        assert_eq!(decode("").unwrap(), b"");
    }

    #[test]
    fn whitespace_tolerated() {
        assert_eq!(decode("Zm9v\nYmFy").unwrap(), b"foobar");
    }

    #[test]
    fn malformed_rejected() {
        assert!(decode("Zm9").is_none()); // bad length
        assert!(decode("Zm!v").is_none()); // bad char
        assert!(decode("Z===").is_none()); // over-padded
        assert!(decode("Z=m9").is_none()); // interior padding
        assert!(decode("Zg==Zg==").is_none()); // data after the final quad
        assert!(decode("Zg==\nZg==").is_none()); // ... even after whitespace
        assert_eq!(decode("Zg==\n").unwrap(), b"f"); // whitespace after it is fine
    }

    #[test]
    fn decode_table_inverts_the_alphabet() {
        for c in 0..=255u8 {
            let expect = ALPHABET.iter().position(|&a| a == c);
            let got = (value(c) & NOT_DIGIT == 0).then_some(usize::from(value(c)));
            assert_eq!(got, expect, "byte {c:#04x}");
        }
    }

    #[test]
    fn every_length_round_trips_split_at_every_offset() {
        let data: Vec<u8> = (0..48u32).map(|i| (i * 97 + 13) as u8).collect();
        for len in 0..=data.len() {
            let data = &data[..len];
            let text = encode(data);
            assert_eq!(text.len(), len.div_ceil(3) * 4);
            assert_eq!(decode(&text).unwrap(), data, "len {len}");
            for split in 0..=len {
                let mut enc = Base64Encoder::new();
                let mut out = String::new();
                enc.update(&data[..split], &mut out);
                enc.update(&data[split..], &mut out);
                enc.finish(&mut out);
                assert_eq!(out, text, "len {len}, encode split at {split}");
            }
            for split in 0..=text.len() {
                let mut dec = Base64Decoder::new();
                let mut out = Vec::new();
                dec.update(&text[..split], &mut out).unwrap();
                dec.update(&text[split..], &mut out).unwrap();
                dec.finish().unwrap();
                assert_eq!(out, data, "len {len}, decode split at {split}");
            }
        }
    }

    #[test]
    fn round_trip_all_bytes() {
        let data: Vec<u8> = (0u8..=255).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn incremental_encoder_matches_one_shot_for_every_split() {
        let data: Vec<u8> = (0u8..=200).collect();
        let expect = encode(&data);
        for split in 0..=data.len() {
            let mut enc = Base64Encoder::new();
            let mut out = String::new();
            enc.update(&data[..split], &mut out);
            enc.update(&data[split..], &mut out);
            enc.finish(&mut out);
            assert_eq!(out, expect, "split at {split}");
        }
        // Byte-at-a-time.
        let mut enc = Base64Encoder::new();
        let mut out = String::new();
        for b in &data {
            enc.update(std::slice::from_ref(b), &mut out);
        }
        enc.finish(&mut out);
        assert_eq!(out, expect);
    }

    #[test]
    fn incremental_encoder_is_reusable_after_finish() {
        let mut enc = Base64Encoder::new();
        let mut out = String::new();
        enc.update(b"foob", &mut out);
        assert_eq!(enc.pending(), 1);
        enc.finish(&mut out);
        assert_eq!(out, "Zm9vYg==");
        out.clear();
        enc.update(b"foobar", &mut out);
        enc.finish(&mut out);
        assert_eq!(out, "Zm9vYmFy");
    }

    #[test]
    fn incremental_decoder_matches_one_shot_for_every_split() {
        let data: Vec<u8> = (0u8..=200).collect();
        let text = format!("{}\n", encode(&data)); // trailing whitespace tolerated
        for split in 0..=text.len() {
            let mut dec = Base64Decoder::new();
            let mut out = Vec::new();
            dec.update(&text[..split], &mut out).unwrap();
            dec.update(&text[split..], &mut out).unwrap();
            dec.finish().unwrap();
            assert_eq!(out, data, "split at {split}");
        }
    }

    #[test]
    fn incremental_decoder_rejects_malformed() {
        let feed = |parts: &[&str]| -> Option<Vec<u8>> {
            let mut dec = Base64Decoder::new();
            let mut out = Vec::new();
            for p in parts {
                dec.update(p, &mut out)?;
            }
            dec.finish()?;
            Some(out)
        };
        assert!(feed(&["Zm9"]).is_none()); // truncated quad
        assert!(feed(&["Zm", "!v"]).is_none()); // bad char across a split
        assert!(feed(&["Z=", "=="]).is_none()); // over-padded
        assert!(feed(&["Z=", "m9"]).is_none()); // digit after padding
        assert!(feed(&["Zg==", "Zg=="]).is_none()); // data after final quad
        assert_eq!(feed(&["Zg=", "=", " \n"]).unwrap(), b"f"); // ws after end ok
    }

    #[test]
    fn incremental_decoder_empty_input_is_empty() {
        let mut dec = Base64Decoder::new();
        let mut out = Vec::new();
        dec.update("", &mut out).unwrap();
        dec.update(" \n\t", &mut out).unwrap();
        dec.finish().unwrap();
        assert!(out.is_empty());
    }
}
