//! Differential property tests for the base64 codec. Fed the same bytes
//! in arbitrary slicings — including 1-byte drips — the streaming encoder
//! and decoder must agree exactly with the one-shot functions and compose
//! into an identity; and both must agree, verdict and bytes, with a
//! bit-by-bit RFC 4648 reference codec kept in this file.

use portalws_soap::base64::{self, Base64Decoder, Base64Encoder};
use proptest::prelude::*;

/// Cut points for splitting `len` bytes into arbitrary contiguous
/// pieces: a sorted list of indices in `0..=len`.
fn splits(len: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..=len, 0..8).prop_map(move |mut cuts| {
        cuts.sort_unstable();
        cuts.dedup();
        cuts
    })
}

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Reference encoder: shift each byte's 8 bits into an accumulator and
/// emit a digit whenever 6 are available; zero-fill the last digit and pad
/// the text to a multiple of 4 with `=`.
fn reference_encode(data: &[u8]) -> String {
    let (mut acc, mut bits, mut out) = (0u32, 0u32, String::new());
    for &b in data {
        acc = ((acc << 8) | u32::from(b)) & 0xffff;
        bits += 8;
        while bits >= 6 {
            bits -= 6;
            out.push(char::from(ALPHABET[((acc >> bits) & 63) as usize]));
        }
    }
    if bits > 0 {
        out.push(char::from(ALPHABET[((acc << (6 - bits)) & 63) as usize]));
    }
    while !out.len().is_multiple_of(4) {
        out.push('=');
    }
    out
}

/// Reference decoder: skip ASCII whitespace; the rest must be whole quads
/// whose only `=` are one or two ending the text. Shift each digit's 6
/// bits into an accumulator and emit a byte whenever 8 are available; the
/// bits left over at the end are dropped.
fn reference_decode(text: &str) -> Option<Vec<u8>> {
    let compact: Vec<char> = text.chars().filter(|c| !c.is_ascii_whitespace()).collect();
    let pads = compact.iter().rev().take_while(|&&c| c == '=').count();
    if !compact.len().is_multiple_of(4) || pads > 2 {
        return None;
    }
    let (mut acc, mut bits, mut out) = (0u32, 0u32, Vec::new());
    for &c in &compact[..compact.len() - pads] {
        let v = ALPHABET.iter().position(|&a| char::from(a) == c)? as u32;
        acc = ((acc << 6) | v) & 0xffff;
        bits += 6;
        if bits >= 8 {
            bits -= 8;
            out.push((acc >> bits) as u8);
        }
    }
    Some(out)
}

/// Decode `text` with the streaming decoder fed in the slices `cuts`
/// makes (cut at char boundaries).
fn streamed_decode(text: &str, cuts: &[usize]) -> Option<Vec<u8>> {
    let chars: Vec<char> = text.chars().collect();
    let mut dec = Base64Decoder::new();
    let mut out = Vec::new();
    for piece in pieces(&chars, cuts) {
        let piece: String = piece.into_iter().collect();
        dec.update(&piece, &mut out)?;
    }
    dec.finish()?;
    Some(out)
}

fn pieces<T: Copy>(data: &[T], cuts: &[usize]) -> Vec<Vec<T>> {
    let mut out = Vec::new();
    let mut at = 0;
    for &cut in cuts.iter().chain(std::iter::once(&data.len())) {
        let cut = cut.min(data.len());
        if cut > at {
            out.push(data[at..cut].to_vec());
        }
        at = cut;
    }
    out
}

proptest! {
    /// Encoding in arbitrary slicings matches the one-shot encoder.
    #[test]
    fn incremental_encode_matches_one_shot(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        cuts in splits(512),
    ) {
        let mut enc = Base64Encoder::new();
        let mut streamed = String::new();
        for piece in pieces(&data, &cuts) {
            enc.update(&piece, &mut streamed);
        }
        enc.finish(&mut streamed);
        prop_assert_eq!(streamed, base64::encode(&data));
    }

    /// One byte at a time is the pathological slicing; it must still
    /// match, and `pending` never reaches a full quantum.
    #[test]
    fn byte_at_a_time_encode_matches(data in proptest::collection::vec(any::<u8>(), 0..96)) {
        let mut enc = Base64Encoder::new();
        let mut streamed = String::new();
        for b in &data {
            enc.update(std::slice::from_ref(b), &mut streamed);
            prop_assert!(enc.pending() < 3);
        }
        enc.finish(&mut streamed);
        prop_assert_eq!(streamed, base64::encode(&data));
    }

    /// Decoding valid base64 in arbitrary slicings matches the one-shot
    /// decoder (which itself inverts encode).
    #[test]
    fn incremental_decode_matches_one_shot(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        cuts in splits(700),
    ) {
        let text = base64::encode(&data);
        let chars: Vec<char> = text.chars().collect();
        let mut dec = Base64Decoder::new();
        let mut out = Vec::new();
        for piece in pieces(&chars, &cuts) {
            let piece: String = piece.into_iter().collect();
            prop_assert!(dec.update(&piece, &mut out).is_some(), "valid input rejected");
        }
        prop_assert!(dec.finish().is_some(), "valid input rejected at finish");
        prop_assert_eq!(out, data);
    }

    /// Streaming encode piped into streaming decode is the identity,
    /// with independent slicings on each side.
    #[test]
    fn encode_then_decode_is_identity(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        enc_cuts in splits(512),
        dec_cuts in splits(700),
    ) {
        let mut enc = Base64Encoder::new();
        let mut text = String::new();
        for piece in pieces(&data, &enc_cuts) {
            enc.update(&piece, &mut text);
        }
        enc.finish(&mut text);

        let chars: Vec<char> = text.chars().collect();
        let mut dec = Base64Decoder::new();
        let mut back = Vec::new();
        for piece in pieces(&chars, &dec_cuts) {
            let piece: String = piece.into_iter().collect();
            prop_assert!(dec.update(&piece, &mut back).is_some());
        }
        prop_assert!(dec.finish().is_some());
        prop_assert_eq!(back, data);
    }

    /// A non-alphabet byte anywhere in the stream poisons the decode —
    /// both the incremental decoder and the one-shot agree on rejection.
    #[test]
    fn non_alphabet_corruption_is_rejected(
        data in proptest::collection::vec(any::<u8>(), 1..256),
        at in 0usize..4096,
        bad_idx in 0usize..16,
    ) {
        const BAD: [char; 16] = [
            '!', '#', '$', '%', '&', '*', '(', ')', '-', '_', '[', ']', '{', '}', '~', '?',
        ];
        let text = base64::encode(&data);
        let mut chars: Vec<char> = text.chars().collect();
        let at = at % chars.len();
        chars[at] = BAD[bad_idx];
        let corrupted: String = chars.iter().collect();
        prop_assert!(base64::decode(&corrupted).is_none());

        let mut dec = Base64Decoder::new();
        let mut out = Vec::new();
        let rejected =
            dec.update(&corrupted, &mut out).is_none() || dec.finish().is_none();
        prop_assert!(rejected, "incremental decoder accepted a non-alphabet byte");
    }

    /// Whitespace injected between quanta is transparent to the
    /// incremental decoder, exactly as it is to the one-shot.
    #[test]
    fn whitespace_is_transparent(
        data in proptest::collection::vec(any::<u8>(), 0..128),
        every in 1usize..8,
    ) {
        let text = base64::encode(&data);
        let mut spaced = String::new();
        for (i, c) in text.chars().enumerate() {
            if i % every == 0 {
                spaced.push_str(" \n\t");
            }
            spaced.push(c);
        }
        let mut dec = Base64Decoder::new();
        let mut out = Vec::new();
        prop_assert!(dec.update(&spaced, &mut out).is_some());
        prop_assert!(dec.finish().is_some());
        prop_assert_eq!(out, data);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes: `encode` is byte-identical to the reference, and
    /// both decoders invert it.
    #[test]
    fn random_bytes_match_the_reference(
        data in proptest::collection::vec(any::<u8>(), 0..300),
        cuts in splits(400),
    ) {
        let text = base64::encode(&data);
        prop_assert_eq!(&text, &reference_encode(&data));
        prop_assert_eq!(reference_decode(&text), Some(data.clone()));
        prop_assert_eq!(base64::decode(&text), Some(data.clone()));
        prop_assert_eq!(streamed_decode(&text, &cuts), Some(data));
    }

    /// Valid text with ASCII whitespace injected anywhere, including
    /// inside quads and after the padding.
    #[test]
    fn injected_whitespace_matches_the_reference(
        data in proptest::collection::vec(any::<u8>(), 0..200),
        spaces in proptest::collection::vec((0usize..400, 0usize..5), 0..12),
        cuts in splits(420),
    ) {
        const WHITESPACE: [char; 5] = [' ', '\t', '\n', '\r', '\x0c'];
        let mut chars: Vec<char> = base64::encode(&data).chars().collect();
        for (at, which) in spaces {
            chars.insert(at % (chars.len() + 1), WHITESPACE[which]);
        }
        let text: String = chars.into_iter().collect();
        let expect = reference_decode(&text);
        prop_assert_eq!(&expect, &Some(data));
        prop_assert_eq!(&base64::decode(&text), &expect);
        prop_assert_eq!(&streamed_decode(&text, &cuts), &expect);
    }

    /// Valid text with one byte set to an arbitrary value (a value past
    /// ASCII goes in as that code point; `=`, a newline and a digit are
    /// drawn as often as all other values together) at an arbitrary
    /// position: accepted or not, every decoder must reach the
    /// reference's verdict and bytes.
    #[test]
    fn one_byte_set_anywhere_matches_the_reference(
        data in proptest::collection::vec(any::<u8>(), 1..200),
        at in 0usize..300,
        byte in prop_oneof![any::<u8>(), Just(b'='), Just(b'\n'), Just(b'A')],
        cuts in splits(300),
    ) {
        let mut chars: Vec<char> = base64::encode(&data).chars().collect();
        let at = at % chars.len();
        chars[at] = char::from(byte);
        let text: String = chars.into_iter().collect();
        let expect = reference_decode(&text);
        prop_assert_eq!(&base64::decode(&text), &expect);
        prop_assert_eq!(&streamed_decode(&text, &cuts), &expect);
    }

    /// Short texts strung from whole and padded quads, loose digits,
    /// `=`, whitespace and junk: mostly malformed (data after padding,
    /// padding mid-quad, short quads), and every decoder must reach the
    /// reference's verdict and bytes.
    #[test]
    fn pieced_texts_match_the_reference(
        picks in proptest::collection::vec(0usize..9, 0..8),
        cuts in splits(32),
    ) {
        const PIECES: [&str; 9] = ["Zm9v", "Zg==", "Zm8=", "Zg", "A", "=", " ", "\n", "!"];
        let text: String = picks.into_iter().map(|i| PIECES[i]).collect();
        let expect = reference_decode(&text);
        prop_assert_eq!(&base64::decode(&text), &expect);
        prop_assert_eq!(&streamed_decode(&text, &cuts), &expect);
    }
}
