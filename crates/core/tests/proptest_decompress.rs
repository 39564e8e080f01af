//! Property tests for the DEFLATE substrate and the decompress-once path.

use dpi_core::{
    deflate_fixed, deflate_stored, gunzip, gzip, inflate, DpiInstance, InflateError,
    InstanceConfig, MiddleboxId, MiddleboxProfile, RuleSpec,
};
use proptest::prelude::*;

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
