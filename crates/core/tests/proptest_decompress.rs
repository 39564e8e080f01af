//! Property tests for the DEFLATE substrate and the decompress-once path.
//!
//! The table-driven decoder is checked against the bit-at-a-time
//! reference in `inflate_oracle/`: every entry point, every output bound
//! in [`MAX_OUTS`], the same bytes or the same error variant. Inputs are
//! the compressors' own output, dynamic-Huffman streams written by zlib
//! (`data/inflate/`, made by its `gen.py`; one reaches 13-bit codes, past
//! the 10-bit lookup table), every truncation of those, single-bit flips
//! and noise.

mod inflate_oracle;

use dpi_core::{
    deflate_fixed, deflate_stored, gunzip, gunzip_capped, gzip, inflate, inflate_capped,
    DpiInstance, InflateError, InstanceConfig, MiddleboxId, MiddleboxProfile, RuleSpec,
};
use inflate_oracle as oracle;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The output bounds every differential check runs at.
const MAX_OUTS: [usize; 5] = [0, 1, 100, 65_536, usize::MAX];

/// Raw DEFLATE streams from zlib, each of dynamic-Huffman blocks.
const ZLIB_STREAMS: [&[u8]; 4] = [
    include_bytes!("data/inflate/http_text.deflate"),
    include_bytes!("data/inflate/skewed.deflate"),
    include_bytes!("data/inflate/far_distance.deflate"),
    include_bytes!("data/inflate/flushed_blocks.deflate"),
];
/// A gzip member from python's `gzip` module, FNAME set.
const ZLIB_MEMBER: &[u8] = include_bytes!("data/inflate/fname_member.gz");

/// Wraps a raw stream in a gzip member whose trailers match its output.
fn member(deflate: &[u8]) -> Vec<u8> {
    let plain = oracle::inflate(deflate, usize::MAX).expect("vector inflates");
    let reference = gzip(&plain);
    let mut out = reference[..10].to_vec();
    out.extend_from_slice(deflate);
    out.extend_from_slice(&reference[reference.len() - 8..]);
    out
}

/// The committed vectors, raw and as members, and the compressors'
/// output for a text with runs.
fn corpus() -> Vec<Vec<u8>> {
    let mut text = b"GET /index.html HTTP/1.1 alert-me-sig ".repeat(6);
    text.extend(std::iter::repeat_n(b'z', 300));
    text.extend_from_slice(b"\x00\xff tail");
    let mut all: Vec<Vec<u8>> = ZLIB_STREAMS.iter().map(|v| v.to_vec()).collect();
    all.extend(ZLIB_STREAMS.iter().map(|v| member(v)));
    all.push(ZLIB_MEMBER.to_vec());
    all.push(deflate_fixed(&text));
    all.push(deflate_stored(&text));
    all.push(gzip(&text));
    all
}

/// Every entry point returns what the reference returns on `input`.
fn agrees(input: &[u8]) -> Result<(), TestCaseError> {
    for m in MAX_OUTS {
        prop_assert_eq!(
            inflate(input, m),
            oracle::inflate(input, m),
            "inflate, max_out {}",
            m
        );
        prop_assert_eq!(
            inflate_capped(input, m),
            oracle::inflate_capped(input, m),
            "inflate_capped, max_out {}",
            m
        );
        prop_assert_eq!(
            gunzip(input, m),
            oracle::gunzip(input, m),
            "gunzip, max_out {}",
            m
        );
        prop_assert_eq!(
            gunzip_capped(input, m),
            oracle::gunzip_capped(input, m),
            "gunzip_capped, max_out {}",
            m
        );
    }
    Ok(())
}

#[test]
fn zlib_vectors_decode_and_their_gzip_trailers_check() {
    for v in ZLIB_STREAMS {
        let plain = inflate(v, usize::MAX).unwrap();
        assert_eq!(gunzip(&member(v), usize::MAX).unwrap(), plain);
    }
    assert!(gunzip(ZLIB_MEMBER, usize::MAX).is_ok());
}

#[test]
fn every_truncation_agrees_with_the_reference() {
    for input in corpus() {
        for cut in 0..=input.len() {
            agrees(&input[..cut]).unwrap();
        }
    }
}

/// Runs of repeated bytes, so `deflate_fixed` emits back-references.
fn runs() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((any::<u8>(), 1usize..40), 0..60).prop_map(|runs| {
        runs.into_iter()
            .flat_map(|(b, n)| std::iter::repeat_n(b, n))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn stored_round_trips(data in prop::collection::vec(any::<u8>(), 0..5000)) {
        let z = deflate_stored(&data);
        prop_assert_eq!(inflate(&z, data.len() + 1).unwrap(), data);
    }

    #[test]
    fn fixed_round_trips(data in prop::collection::vec(any::<u8>(), 0..5000)) {
        let z = deflate_fixed(&data);
        prop_assert_eq!(inflate(&z, data.len() + 1).unwrap(), data);
    }

    #[test]
    fn runs_round_trip_and_shrink(byte in any::<u8>(), n in 1usize..4000, pad in prop::collection::vec(any::<u8>(), 0..32)) {
        let mut data = pad.clone();
        data.extend(std::iter::repeat_n(byte, n));
        data.extend(pad.iter().rev());
        let z = deflate_fixed(&data);
        prop_assert_eq!(inflate(&z, data.len() + 1).unwrap(), data);
    }

    #[test]
    fn inflate_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = inflate(&bytes, 1 << 16);
    }

    #[test]
    fn gzip_round_trips_and_gunzip_never_panics(
        data in prop::collection::vec(any::<u8>(), 0..2000),
        garbage in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let z = gzip(&data);
        prop_assert_eq!(gunzip(&z, data.len() + 1).unwrap(), data);
        let _ = gunzip(&garbage, 1 << 16);
    }

    #[test]
    fn output_limit_is_respected(data in prop::collection::vec(any::<u8>(), 64..2000), limit in 0usize..64) {
        // Limit strictly below the decompressed size must error, and the
        // error must be OutputLimit (not a panic or wrong variant).
        let z = deflate_fixed(&data);
        prop_assert_eq!(inflate(&z, limit).unwrap_err(), InflateError::OutputLimit);
    }

    #[test]
    fn single_bit_flips_agree_with_the_reference(which in any::<prop::sample::Index>(), bit in any::<prop::sample::Index>()) {
        let corpus = corpus();
        let mut input = corpus[which.index(corpus.len())].clone();
        let bit = bit.index(input.len() * 8);
        input[bit / 8] ^= 1 << (bit % 8);
        agrees(&input)?;
    }

    #[test]
    fn noise_agrees_with_the_reference(noise in prop::collection::vec(any::<u8>(), 0..600), framed in any::<bool>()) {
        // A valid gzip header in front carries noise past the framing
        // check into the inflater.
        let mut input = if framed { gzip(b"")[..10].to_vec() } else { Vec::new() };
        input.extend_from_slice(&noise);
        agrees(&input)?;
    }

    #[test]
    fn compressor_output_agrees_when_cut_or_flipped(data in runs(), cut in any::<prop::sample::Index>(), bit in any::<prop::sample::Index>()) {
        for input in [deflate_fixed(&data), deflate_stored(&data), gzip(&data)] {
            agrees(&input)?;
            agrees(&input[..cut.index(input.len() + 1)])?;
            let mut flipped = input.clone();
            let bit = bit.index(flipped.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
            agrees(&flipped)?;
        }
    }
}

#[test]
fn instance_scans_decompressed_content_once() {
    const MB1: MiddleboxId = MiddleboxId(1);
    const MB2: MiddleboxId = MiddleboxId(2);
    let cfg = InstanceConfig::new()
        .with_middlebox(
            MiddleboxProfile::stateless(MB1),
            vec![RuleSpec::exact(b"hidden-sig".to_vec())],
        )
        .with_middlebox(
            MiddleboxProfile::stateless(MB2),
            vec![RuleSpec::exact(b"hidden-sig".to_vec())],
        )
        .with_chain(1, vec![MB1, MB2]);
    let mut dpi = DpiInstance::new(cfg).unwrap();

    let plain = b"some page body with hidden-sig inside".to_vec();
    let compressed = deflate_fixed(&plain);
    // The signature is invisible in the compressed bytes…
    assert!(!compressed
        .windows(10)
        .any(|w| w == b"hidden-sig".as_slice()));
    let out = dpi.scan_payload(1, None, &compressed).unwrap();
    assert!(out.reports.is_empty());

    // …but one inflation in front of the shared scan finds it for BOTH
    // middleboxes (§1: decompress once).
    let inflated = inflate(&compressed, 1 << 16).unwrap();
    let out = dpi.scan_payload(1, None, &inflated).unwrap();
    assert_eq!(out.reports.len(), 2);
    assert_eq!(out.scanned, plain.len());
}
