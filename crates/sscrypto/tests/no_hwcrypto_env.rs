//! `GFWSIM_NO_HWCRYPTO=1` must force scalar dispatch process-wide.
//!
//! This lives in its own test binary (one test, own process) because the
//! override is read once, before the first [`CpuFeatures::get`] caches
//! the probe — setting it from inside a shared test binary would race
//! other tests that have already populated the cache.

use sscrypto::hw::CpuFeatures;

#[test]
fn env_override_selects_scalar_everywhere() {
    // Set before any detection runs in this process. Safe in edition
    // 2021; this binary is single-test so no other thread is reading
    // the environment.
    std::env::set_var("GFWSIM_NO_HWCRYPTO", "1");

    let feat = CpuFeatures::get();
    assert!(
        !feat.any(),
        "env override leaked hardware features: {feat:?}"
    );
    assert!(!feat.aes && !feat.pclmulqdq && !feat.ssse3 && !feat.avx2 && !feat.sha);

    // The registry sees the same masked snapshot: nothing reports
    // hardware acceleration.
    for m in sscrypto::method::ALL_METHODS {
        assert!(
            !m.hw_accelerated_with(CpuFeatures::get()),
            "{} claims acceleration under GFWSIM_NO_HWCRYPTO=1",
            m.name()
        );
    }

    // And a cipher built through the default constructor runs scalar.
    assert!(!sscrypto::aes::Aes::new(&[0u8; 16]).is_hw());
    // So do hashers, and with them HMAC and HKDF.
    assert!(!sscrypto::sha1::Sha1::new().is_hw());
    assert!(!sscrypto::sha256::Sha256::new().is_hw());

    // Raw detection (used by the differential suites) is deliberately
    // unaffected: the override masks dispatch, not the probe itself.
    #[cfg(target_arch = "x86_64")]
    {
        let raw = CpuFeatures::detect_with(false);
        if std::arch::is_x86_feature_detected!("aes") {
            assert!(raw.aes, "detect_with(false) must ignore the env override");
        }
    }
}
