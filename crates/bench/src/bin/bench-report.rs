//! `bench-report` — the tracked perf trajectory, without criterion.
//!
//! Runs the hot-path workloads (netsim substrate, passive first-payload
//! scoring, the exp-fig10 grid, and per-method AEAD codec throughput)
//! with plain wall-clock timing and writes `BENCH_substrate.json`: the
//! measured numbers next to the pre-optimization baselines recorded
//! when the substrate and crypto rewrites landed, so every future PR
//! can see the trajectory.
//!
//! Modes:
//!
//! * default — full measurement (best of several runs), JSON to
//!   `--out` (default `BENCH_substrate.json`);
//! * `--quick` — one short run per workload, for CI smoke;
//! * `--check <path>` — no benchmarks: validate that an existing JSON
//!   file is well-formed (schema marker plus positive baseline/current
//!   numbers), exit 1 otherwise.

use netsim::app::{App, AppEvent, Ctx};
use netsim::conn::TcpTuning;
use netsim::host::HostConfig;
use netsim::time::{Duration, SimTime};
use netsim::{SimConfig, Simulator};
use shadowsocks::wire::{AeadDecryptor, AeadEncryptor};
use sscrypto::method::Method;
use std::time::Instant;

/// Numbers recorded before the timer-wheel / arena / LUT rewrite, on
/// the same workloads as below (BinaryHeap event queue, HashMap
/// connection and host lookups, per-packet band scan + two-pass
/// entropy). Measured with this exact harness (same measurement order,
/// best-of-N) built against the pre-rewrite tree on the same machine;
/// the acceptance bar for the rewrite is ≥1.5× events/sec and ≥2×
/// scores/sec against these. The fig10 grid is tracked but has no bar:
/// it is dominated by the crypto engine, which the rewrite left alone.
const BASELINE_LABEL: &str =
    "pre-optimization: BinaryHeap queue, HashMap conn/host lookups, band-scan detector";
const BASELINE_EVENTS_PER_SEC: f64 = 2_784_000.0;
const BASELINE_SCORES_PER_SEC: f64 = 941_000.0;
const BASELINE_FIG10_GRID_MS: f64 = 645.0;

/// Crypto-engine numbers recorded before the batched-ChaCha20 /
/// tabled-GHASH / zero-copy codec rewrite: one-block-at-a-time ChaCha20,
/// single-block scalar Poly1305, byte-wise AES rounds, bit-by-bit
/// `gf_mul` GHASH, and a wire codec that built three `Vec`s per AEAD
/// chunk. Measured with this exact harness (same payload sizes, same
/// best-of-N) built against the pre-rewrite tree on the same machine;
/// the acceptance bar for the rewrite is ≥2× aes-256-gcm seal MB/s and
/// a lower fig10 wall time.
const CRYPTO_BASELINE_LABEL: &str =
    "pre-crypto-rewrite: one-block ChaCha20, byte-wise AES, bit-by-bit GHASH, Vec-per-chunk codec";
/// `(json key, seal MB/s, open MB/s)` per AEAD method, in
/// [`AEAD_METHODS`] order.
const CRYPTO_BASELINE_MB_S: &[(&str, f64, f64)] = &[
    ("aes_128_gcm", 39.6, 40.0),
    ("aes_192_gcm", 37.1, 35.0),
    ("aes_256_gcm", 34.4, 33.9),
    ("chacha20_ietf_poly1305", 335.4, 308.5),
    ("xchacha20_ietf_poly1305", 331.7, 386.2),
];
const CRYPTO_BASELINE_FIG10_MS: f64 = 632.7;

/// Acceptance bar for the hardware fast paths (AES-NI + CLMUL GHASH):
/// a full-mode report measured with hardware dispatch active must show
/// at least this aes-256-gcm seal speedup over the pre-rewrite scalar
/// baseline. Files measured without the features (or under
/// `GFWSIM_NO_HWCRYPTO`) are exempt — the scalar engine cannot reach it.
const AES_GCM_MIN_HW_SPEEDUP: f64 = 10.0;

/// Effective hardware-crypto dispatch state, recorded in the report so
/// `--check` knows which acceptance bars apply to the file's numbers.
#[derive(Clone, Copy)]
struct HwInfo {
    aes_ni: bool,
    pclmulqdq: bool,
    ssse3: bool,
    avx2: bool,
    /// Detection found features but dispatch is masked
    /// (`GFWSIM_NO_HWCRYPTO` or the force-scalar switch).
    forced_scalar: bool,
}

impl HwInfo {
    fn probe() -> Self {
        let raw = sscrypto::hw::CpuFeatures::detect_with(false);
        let eff = sscrypto::hw::CpuFeatures::get();
        HwInfo {
            aes_ni: eff.aes,
            pclmulqdq: eff.pclmulqdq,
            ssse3: eff.ssse3,
            avx2: eff.avx2,
            forced_scalar: raw.any() && !eff.any(),
        }
    }

    fn json(self) -> String {
        format!(
            concat!(
                "  \"hw_crypto\": {{\n",
                "    \"aes_ni\": {},\n",
                "    \"pclmulqdq\": {},\n",
                "    \"ssse3\": {},\n",
                "    \"avx2\": {},\n",
                "    \"forced_scalar\": {}\n",
                "  }},\n",
            ),
            self.aes_ni, self.pclmulqdq, self.ssse3, self.avx2, self.forced_scalar
        )
    }
}

/// The AEAD methods tracked by the crypto section, with their JSON key
/// stems (dashes are awkward in JSON keys). Order must match
/// [`CRYPTO_BASELINE_MB_S`].
const AEAD_METHODS: &[(Method, &str)] = &[
    (Method::Aes128Gcm, "aes_128_gcm"),
    (Method::Aes192Gcm, "aes_192_gcm"),
    (Method::Aes256Gcm, "aes_256_gcm"),
    (Method::ChaCha20IetfPoly1305, "chacha20_ietf_poly1305"),
    (Method::XChaCha20IetfPoly1305, "xchacha20_ietf_poly1305"),
];

struct Echo;
impl App for Echo {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        if let AppEvent::Data { conn, data } = ev {
            ctx.send(conn, data.to_vec());
            ctx.fin(conn);
        }
    }
}

struct Client;
impl App for Client {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        match ev {
            AppEvent::Connected { conn } => ctx.send(conn, vec![7u8; 400]),
            AppEvent::PeerFin { conn } => ctx.fin(conn),
            _ => {}
        }
    }
}

/// One pass of the substrate workload: `n` cross-border echo
/// connections through a fresh simulator. Returns events processed.
fn substrate_once(n: u64) -> u64 {
    let mut sim = Simulator::new(SimConfig::default(), 42);
    let server = sim.add_host(HostConfig::outside("s"));
    let client = sim.add_host(HostConfig::china("c"));
    let echo = sim.add_app(Box::new(Echo));
    sim.listen((server, 80), echo);
    let app = sim.add_app(Box::new(Client));
    for i in 0..n {
        sim.connect_at(
            SimTime::ZERO + Duration::from_millis(i * 10),
            app,
            client,
            (server, 80),
            TcpTuning::default(),
        );
    }
    sim.run();
    sim.stats.events
}

/// Events/sec over the echo-connection workload, best of `runs`.
fn bench_substrate(conns: u64, runs: usize) -> f64 {
    substrate_once(conns.min(100)); // warm up allocator + code paths
    let mut best = 0.0f64;
    for _ in 0..runs {
        let t = Instant::now();
        let events = substrate_once(conns);
        let rate = events as f64 / t.elapsed().as_secs_f64();
        best = best.max(rate);
    }
    best
}

/// First-payload scores/sec: `store_probability` over a pool of
/// payloads spanning the detector's length bands (and outside them).
fn bench_scoring(iters: usize, runs: usize) -> f64 {
    let det = gfw_core::passive::PassiveDetector::default();
    let lens = [64usize, 169, 306, 402, 687, 850, 1400];
    let pool: Vec<Vec<u8>> = lens.iter().map(|&l| bench::payload(l, l as u64)).collect();
    let mut best = 0.0f64;
    let mut sink = 0.0f64;
    for _ in 0..runs {
        let t = Instant::now();
        for i in 0..iters {
            sink += det.store_probability(&pool[i % pool.len()]);
        }
        let rate = iters as f64 / t.elapsed().as_secs_f64();
        best = best.max(rate);
    }
    assert!(sink >= 0.0);
    best
}

/// Wall time of the exp-fig10 reaction grid at quick scale, in ms
/// (best of `runs`). Runs single-threaded so the number tracks
/// per-core substrate speed, not the machine's core count.
fn bench_fig10(runs: usize) -> f64 {
    experiments::runner::set_jobs(1);
    let mut best = f64::INFINITY;
    let mut sink = 0usize;
    for _ in 0..runs {
        let t = Instant::now();
        let fig = experiments::figures::fig10::run(experiments::Scale::Quick, 2020);
        sink += fig.to_string().len();
        let ms = t.elapsed().as_secs_f64() * 1000.0;
        eprintln!("bench-report:   fig10 run: {ms:.1} ms");
        best = best.min(ms);
    }
    experiments::runner::set_jobs(0);
    assert!(sink > 0);
    best
}

/// Seal throughput through the full wire codec (framing + AEAD), in
/// MB/s of plaintext, best of `runs`. One session per run so the
/// HKDF/key-schedule setup is amortized the way real connections
/// amortize it.
fn bench_seal(method: Method, total_bytes: usize, runs: usize) -> f64 {
    let key = sscrypto::kdf::evp_bytes_to_key(b"bench-password", method.key_len());
    let plain = bench::payload(shadowsocks::wire::MAX_CHUNK, 0xC0FFEE);
    let iters = (total_bytes / plain.len()).max(1);
    let mut best = 0.0f64;
    for _ in 0..runs {
        let mut enc = AeadEncryptor::new(method, &key, vec![0x42u8; method.iv_len()]);
        let mut sink = 0usize;
        let t = Instant::now();
        for _ in 0..iters {
            sink += enc.seal(&plain).len();
        }
        let rate = (iters * plain.len()) as f64 / t.elapsed().as_secs_f64() / 1e6;
        assert!(sink > iters * plain.len());
        best = best.max(rate);
    }
    best
}

/// Open throughput through the full wire codec, in MB/s of recovered
/// plaintext, best of `runs`. The ciphertext is sealed once up front
/// and replayed to a fresh decryptor per run in 64 KiB slices.
fn bench_open(method: Method, total_bytes: usize, runs: usize) -> f64 {
    let key = sscrypto::kdf::evp_bytes_to_key(b"bench-password", method.key_len());
    let plain = bench::payload(shadowsocks::wire::MAX_CHUNK, 0xC0FFEE);
    let iters = (total_bytes / plain.len()).max(1);
    let mut enc = AeadEncryptor::new(method, &key, vec![0x42u8; method.iv_len()]);
    let mut ct = Vec::new();
    for _ in 0..iters {
        ct.extend_from_slice(&enc.seal(&plain));
    }
    let mut best = 0.0f64;
    for _ in 0..runs {
        let mut dec = AeadDecryptor::new(method, &key);
        let mut sink = 0usize;
        let t = Instant::now();
        for piece in ct.chunks(64 * 1024) {
            for chunk in dec.decrypt(piece).expect("bench ciphertext is authentic") {
                sink += chunk.len();
            }
        }
        let rate = sink as f64 / t.elapsed().as_secs_f64() / 1e6;
        assert_eq!(sink, iters * plain.len());
        best = best.max(rate);
    }
    best
}

/// The crypto section of the report: baseline consts next to the
/// measured per-method numbers (hardware dispatch and forced-scalar
/// oracle) plus the fig10 wall time (the end-to-end workload that
/// motivated the crypto rewrite).
fn crypto_json(current: &[(&str, f64, f64)], scalar: &[(&str, f64, f64)], fig_ms: f64) -> String {
    let mut s = String::new();
    s.push_str("  \"crypto\": {\n");
    s.push_str("    \"baseline\": {\n");
    s.push_str(&format!("      \"label\": \"{CRYPTO_BASELINE_LABEL}\",\n"));
    for &(k, seal, open) in CRYPTO_BASELINE_MB_S {
        s.push_str(&format!("      \"{k}_seal_mb_s\": {seal:.1},\n"));
        s.push_str(&format!("      \"{k}_open_mb_s\": {open:.1},\n"));
    }
    s.push_str(&format!(
        "      \"fig10_grid_ms\": {CRYPTO_BASELINE_FIG10_MS:.1}\n"
    ));
    s.push_str("    },\n");
    s.push_str("    \"current\": {\n");
    for &(k, seal, open) in current {
        s.push_str(&format!("      \"{k}_seal_mb_s\": {seal:.1},\n"));
        s.push_str(&format!("      \"{k}_open_mb_s\": {open:.1},\n"));
    }
    for &(k, seal, open) in scalar {
        s.push_str(&format!("      \"{k}_scalar_seal_mb_s\": {seal:.1},\n"));
        s.push_str(&format!("      \"{k}_scalar_open_mb_s\": {open:.1},\n"));
    }
    s.push_str(&format!("      \"fig10_grid_ms\": {fig_ms:.1}\n"));
    s.push_str("    },\n");
    s.push_str("    \"speedup\": {\n");
    for (&(k, bseal, _), &(_, seal, _)) in CRYPTO_BASELINE_MB_S.iter().zip(current) {
        s.push_str(&format!("      \"{k}_seal\": {:.2},\n", seal / bseal));
    }
    s.push_str(&format!(
        "      \"fig10_grid\": {:.2}\n",
        CRYPTO_BASELINE_FIG10_MS / fig_ms
    ));
    s.push_str("    }\n");
    s.push_str("  }\n");
    s
}

fn json(
    quick: bool,
    ev: f64,
    sc: f64,
    fig_ms: f64,
    crypto: &[(&str, f64, f64)],
    scalar: &[(&str, f64, f64)],
    hw: HwInfo,
) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"schema\": 1,\n",
            "  \"bench\": \"substrate\",\n",
            "  \"mode\": \"{mode}\",\n",
            "{hw}",
            "  \"baseline\": {{\n",
            "    \"label\": \"{label}\",\n",
            "    \"events_per_sec\": {bev:.0},\n",
            "    \"first_payload_scores_per_sec\": {bsc:.0},\n",
            "    \"fig10_grid_ms\": {bfig:.1}\n",
            "  }},\n",
            "  \"current\": {{\n",
            "    \"events_per_sec\": {ev:.0},\n",
            "    \"first_payload_scores_per_sec\": {sc:.0},\n",
            "    \"fig10_grid_ms\": {fig:.1}\n",
            "  }},\n",
            "  \"speedup\": {{\n",
            "    \"events_per_sec\": {sev:.2},\n",
            "    \"first_payload_scores_per_sec\": {ssc:.2},\n",
            "    \"fig10_grid\": {sfig:.2}\n",
            "  }},\n",
            "{crypto}",
            "}}\n"
        ),
        mode = if quick { "quick" } else { "full" },
        label = BASELINE_LABEL,
        bev = BASELINE_EVENTS_PER_SEC,
        bsc = BASELINE_SCORES_PER_SEC,
        bfig = BASELINE_FIG10_GRID_MS,
        ev = ev,
        sc = sc,
        fig = fig_ms,
        sev = ev / BASELINE_EVENTS_PER_SEC,
        ssc = sc / BASELINE_SCORES_PER_SEC,
        sfig = BASELINE_FIG10_GRID_MS / fig_ms,
        hw = hw.json(),
        crypto = crypto_json(crypto, scalar, fig_ms),
    )
}

/// Extract `"key": <number>` from minimal JSON (no nesting awareness
/// needed: every key we query is unique in the file we emit).
fn extract_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = text.find(&needle)? + needle.len();
    let rest = text[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Configurations tracked in `BENCH_scale.json` (see `exp-scale`).
const SCALE_STEMS: &[&str] = &[
    "packet_10k",
    "packet_100k",
    "hybrid_10k",
    "hybrid_100k",
    "hybrid_1m",
    "hybrid_1m_cells8",
];

/// Acceptance bar for the hybrid engine: flows/sec at 100k flows must
/// beat the pure packet engine by at least this factor.
const SCALE_MIN_SPEEDUP_100K: f64 = 10.0;

/// Regression floor for the fig10 grid in full-mode substrate files
/// measured with hardware crypto dispatch active: the AES-NI/CLMUL
/// engine must keep the grid at least as fast as the pre-crypto-rewrite
/// tree even in the worst scheduling mode. Quick-mode files are exempt
/// (single run, noise-dominated).
const FIG10_GRID_MIN_SPEEDUP_HW: f64 = 1.0;

/// Regression floor for full-mode files measured on the scalar engine
/// (no features, or `GFWSIM_NO_HWCRYPTO`). The grid is crypto-bound and
/// bimodal run to run, so the scalar floor keeps the pre-hardware
/// tolerance band; below it a real regression is the likelier
/// explanation than scheduling noise.
const FIG10_GRID_MIN_SPEEDUP_SCALAR: f64 = 0.9;

/// Validate a BENCH_substrate.json: schema marker present, every
/// metric a positive finite number. Returns a list of problems.
fn check_file(text: &str) -> Vec<String> {
    let mut problems = Vec::new();
    if extract_number(text, "schema") != Some(1.0) {
        problems.push("missing or unsupported \"schema\" (want 1)".to_string());
    }
    let mut keys = vec![
        "events_per_sec".to_string(),
        "first_payload_scores_per_sec".to_string(),
        "fig10_grid_ms".to_string(),
    ];
    for &(k, _, _) in CRYPTO_BASELINE_MB_S {
        keys.push(format!("{k}_seal_mb_s"));
        keys.push(format!("{k}_open_mb_s"));
    }
    for key in &keys {
        let occurrences = text.matches(&format!("\"{key}\":")).count();
        if occurrences < 2 {
            problems.push(format!(
                "\"{key}\" must appear in both baseline and current (found {occurrences})"
            ));
            continue;
        }
        match extract_number(text, key) {
            Some(v) if v.is_finite() && v > 0.0 => {}
            _ => problems.push(format!("\"{key}\" is not a positive number")),
        }
    }
    // Forced-scalar oracle bars appear only in the current section.
    for &(k, _, _) in CRYPTO_BASELINE_MB_S {
        for metric in ["seal", "open"] {
            let key = format!("{k}_scalar_{metric}_mb_s");
            match extract_number(text, &key) {
                Some(v) if v.is_finite() && v > 0.0 => {}
                _ => problems.push(format!("\"{key}\" is not a positive number")),
            }
        }
    }
    for flag in ["aes_ni", "pclmulqdq", "ssse3", "avx2", "forced_scalar"] {
        if !text.contains(&format!("\"{flag}\": ")) {
            problems.push(format!("missing \"{flag}\" in the hw_crypto section"));
        }
    }
    // Which acceptance bars apply depends on how the file was measured:
    // hardware dispatch active means the fast-path bars, scalar (no
    // features or forced) keeps the pre-hardware tolerance band.
    let hw_active = text.contains("\"aes_ni\": true") && !text.contains("\"forced_scalar\": true");
    if text.contains("\"mode\": \"full\"") {
        let floor = if hw_active {
            FIG10_GRID_MIN_SPEEDUP_HW
        } else {
            FIG10_GRID_MIN_SPEEDUP_SCALAR
        };
        // First "fig10_grid" occurrence is the substrate speedup block.
        match extract_number(text, "fig10_grid") {
            Some(v) if v >= floor => {}
            Some(v) => problems.push(format!(
                "\"fig10_grid\" speedup {v} below the {floor} regression floor"
            )),
            None => problems.push("missing \"fig10_grid\" speedup".to_string()),
        }
        if hw_active {
            match extract_number(text, "aes_256_gcm_seal") {
                Some(v) if v >= AES_GCM_MIN_HW_SPEEDUP => {}
                Some(v) => problems.push(format!(
                    "\"aes_256_gcm_seal\" speedup {v} below the {AES_GCM_MIN_HW_SPEEDUP}x \
                     hardware acceptance bar"
                )),
                None => problems.push("missing \"aes_256_gcm_seal\" speedup".to_string()),
            }
        }
    }
    problems
}

/// Validate a BENCH_scale.json (from `exp-scale`): schema marker,
/// flows/sec and peak RSS present and positive for every tracked
/// configuration, and the 100k-flow hybrid speedup at or above the
/// acceptance bar.
fn check_scale_file(text: &str) -> Vec<String> {
    let mut problems = Vec::new();
    if extract_number(text, "schema") != Some(1.0) {
        problems.push("missing or unsupported \"schema\" (want 1)".to_string());
    }
    for stem in SCALE_STEMS {
        for metric in ["flows_per_sec", "rss_kb"] {
            let key = format!("{stem}_{metric}");
            match extract_number(text, &key) {
                Some(v) if v.is_finite() && v > 0.0 => {}
                _ => problems.push(format!("\"{key}\" is not a positive number")),
            }
        }
    }
    match extract_number(text, "speedup_flows_100k") {
        Some(v) if v >= SCALE_MIN_SPEEDUP_100K => {}
        Some(v) => problems.push(format!(
            "\"speedup_flows_100k\" {v} below the {SCALE_MIN_SPEEDUP_100K}x acceptance bar"
        )),
        None => problems.push("missing \"speedup_flows_100k\"".to_string()),
    }
    problems
}

/// Configurations tracked in `BENCH_baserate.json` (see `exp-baserate`).
const BASERATE_STEMS: &[&str] = &["mix_100k_packet", "mix_100k_hybrid", "mix_1m_hybrid"];

/// Acceptance bar for the mixed-traffic workload: hybrid flows/sec at
/// 100k flows must beat the packet engine by at least this factor —
/// 0.9× the pure-bulk scale bar, since the mix spends a larger share
/// of its packets on handshakes the hybrid engine cannot collapse.
const BASERATE_MIN_SPEEDUP_100K: f64 = 9.0;

/// Validate a BENCH_baserate.json (from `exp-baserate --bench`):
/// schema marker, flows/sec and peak RSS present and positive for
/// every tracked configuration, and the 100k-flow mixed-traffic
/// speedup at or above the acceptance bar.
fn check_baserate_file(text: &str) -> Vec<String> {
    let mut problems = Vec::new();
    if extract_number(text, "schema") != Some(1.0) {
        problems.push("missing or unsupported \"schema\" (want 1)".to_string());
    }
    for stem in BASERATE_STEMS {
        for metric in ["flows_per_sec", "rss_kb"] {
            let key = format!("{stem}_{metric}");
            match extract_number(text, &key) {
                Some(v) if v.is_finite() && v > 0.0 => {}
                _ => problems.push(format!("\"{key}\" is not a positive number")),
            }
        }
    }
    match extract_number(text, "speedup_mix_100k") {
        Some(v) if v >= BASERATE_MIN_SPEEDUP_100K => {}
        Some(v) => problems.push(format!(
            "\"speedup_mix_100k\" {v} below the {BASERATE_MIN_SPEEDUP_100K}x acceptance bar"
        )),
        None => problems.push("missing \"speedup_mix_100k\"".to_string()),
    }
    problems
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut out_path = "BENCH_substrate.json".to_string();
    let mut check_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--out" {
            if let Some(p) = it.next() {
                out_path = p.clone();
            }
        } else if a == "--check" {
            check_path = it.next().cloned();
            if check_path.is_none() {
                eprintln!("bench-report: --check needs a path");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = check_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench-report: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        let problems = if text.contains("\"bench\": \"baserate\"") {
            check_baserate_file(&text)
        } else if text.contains("\"bench\": \"scale\"") {
            check_scale_file(&text)
        } else {
            check_file(&text)
        };
        if problems.is_empty() {
            println!("bench-report: {path} OK");
            return;
        }
        for p in &problems {
            eprintln!("bench-report: {path}: {p}");
        }
        std::process::exit(1);
    }

    let (conns, sruns, iters, iruns, fruns, cbytes, cruns) = if quick {
        (
            1_000u64,
            1usize,
            50_000usize,
            1usize,
            1usize,
            1 << 21,
            1usize,
        )
    } else {
        (5_000, 5, 400_000, 5, 3, 8 << 20, 3)
    };

    // fig10 runs first: it is the most allocation-sensitive workload,
    // and measuring it against a cold heap keeps the number comparable
    // across trees regardless of what the other benches leave behind.
    eprintln!("bench-report: exp-fig10 grid (quick scale x {fruns})...");
    let fig_ms = bench_fig10(fruns);
    eprintln!("bench-report: substrate ({conns} conns x {sruns})...");
    let ev = bench_substrate(conns, sruns);
    eprintln!("bench-report: first-payload scoring ({iters} x {iruns})...");
    let sc = bench_scoring(iters, iruns);
    eprintln!(
        "bench-report: aead codec throughput ({} MiB x {cruns} per method)...",
        cbytes >> 20
    );
    let hw = HwInfo::probe();
    eprintln!(
        "bench-report: hw crypto: aes_ni={} pclmulqdq={} ssse3={} avx2={} forced_scalar={}",
        hw.aes_ni, hw.pclmulqdq, hw.ssse3, hw.avx2, hw.forced_scalar
    );
    let crypto: Vec<(&str, f64, f64)> = AEAD_METHODS
        .iter()
        .map(|&(m, key)| {
            let seal = bench_seal(m, cbytes, cruns);
            let open = bench_open(m, cbytes, cruns);
            eprintln!(
                "bench-report:   {}: seal {seal:.1} MB/s, open {open:.1} MB/s",
                m.name()
            );
            (key, seal, open)
        })
        .collect();
    // Forced-scalar oracle bars: the same workload with dispatch masked,
    // so the scalar engine's trajectory stays visible next to the
    // hardware numbers. The mask is per-construction and every bench run
    // constructs fresh codecs, so flipping the switch is race-free here.
    eprintln!("bench-report: aead codec throughput, forced-scalar oracle...");
    sscrypto::hw::set_force_scalar(true);
    let scalar: Vec<(&str, f64, f64)> = AEAD_METHODS
        .iter()
        .map(|&(m, key)| {
            let seal = bench_seal(m, cbytes, cruns);
            let open = bench_open(m, cbytes, cruns);
            eprintln!(
                "bench-report:   {}: scalar seal {seal:.1} MB/s, open {open:.1} MB/s",
                m.name()
            );
            (key, seal, open)
        })
        .collect();
    sscrypto::hw::set_force_scalar(false);

    println!(
        "substrate events/sec:        {ev:>12.0}  ({:.2}x baseline)",
        ev / BASELINE_EVENTS_PER_SEC
    );
    println!(
        "first-payload scores/sec:    {sc:>12.0}  ({:.2}x baseline)",
        sc / BASELINE_SCORES_PER_SEC
    );
    println!(
        "exp-fig10 grid wall (ms):    {fig_ms:>12.1}  ({:.2}x baseline)",
        BASELINE_FIG10_GRID_MS / fig_ms
    );
    for (&(name, seal, open), &(_, bseal, bopen)) in crypto.iter().zip(CRYPTO_BASELINE_MB_S) {
        println!(
            "{name:<28} seal {seal:>8.1} MB/s ({:.2}x)   open {open:>8.1} MB/s ({:.2}x)",
            seal / bseal,
            open / bopen
        );
    }

    let body = json(quick, ev, sc, fig_ms, &crypto, &scalar, hw);
    if let Err(e) = std::fs::write(&out_path, &body) {
        eprintln!("bench-report: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("bench-report: wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hardware-path fakes clear the 10x aes-256-gcm acceptance bar.
    fn fake_crypto() -> Vec<(&'static str, f64, f64)> {
        CRYPTO_BASELINE_MB_S
            .iter()
            .map(|&(k, s, o)| (k, s * 12.0, o * 12.0))
            .collect()
    }

    /// Forced-scalar oracle bars: modest gains, as on the real engine.
    fn fake_scalar() -> Vec<(&'static str, f64, f64)> {
        CRYPTO_BASELINE_MB_S
            .iter()
            .map(|&(k, s, o)| (k, s * 2.0, o * 2.0))
            .collect()
    }

    fn hw_on() -> HwInfo {
        HwInfo {
            aes_ni: true,
            pclmulqdq: true,
            ssse3: true,
            avx2: true,
            forced_scalar: false,
        }
    }

    fn hw_off() -> HwInfo {
        HwInfo {
            aes_ni: false,
            pclmulqdq: false,
            ssse3: false,
            avx2: false,
            forced_scalar: false,
        }
    }

    #[test]
    fn emitted_json_passes_check() {
        let body = json(
            false,
            2_000_000.0,
            900_000.0,
            400.0,
            &fake_crypto(),
            &fake_scalar(),
            hw_on(),
        );
        assert!(check_file(&body).is_empty(), "{:?}", check_file(&body));
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(!check_file("{}").is_empty());
        let body = json(
            false,
            2_000_000.0,
            900_000.0,
            400.0,
            &fake_crypto(),
            &fake_scalar(),
            hw_on(),
        );
        let broken = body.replace("\"events_per_sec\"", "\"events\"");
        assert!(!check_file(&broken).is_empty());
    }

    #[test]
    fn missing_crypto_section_is_rejected() {
        let body = json(
            false,
            2_000_000.0,
            900_000.0,
            400.0,
            &fake_crypto(),
            &fake_scalar(),
            hw_on(),
        );
        let broken = body.replace("_seal_mb_s", "_seal");
        let problems = check_file(&broken);
        assert!(
            problems.iter().any(|p| p.contains("aes_256_gcm_seal_mb_s")),
            "{problems:?}"
        );
    }

    #[test]
    fn missing_scalar_bars_are_rejected() {
        let body = json(
            false,
            2_000_000.0,
            900_000.0,
            400.0,
            &fake_crypto(),
            &fake_scalar(),
            hw_on(),
        );
        let broken = body.replace("_scalar_seal_mb_s", "_scalar_seal");
        let problems = check_file(&broken);
        assert!(
            problems
                .iter()
                .any(|p| p.contains("aes_256_gcm_scalar_seal_mb_s")),
            "{problems:?}"
        );
    }

    #[test]
    fn hw_file_below_ten_x_is_rejected_scalar_file_is_not() {
        // Scalar-magnitude numbers measured with hardware dispatch
        // active: the 10x bar applies and fails.
        let slow_hw = json(
            false,
            2_000_000.0,
            900_000.0,
            400.0,
            &fake_scalar(),
            &fake_scalar(),
            hw_on(),
        );
        let problems = check_file(&slow_hw);
        assert!(
            problems.iter().any(|p| p.contains("aes_256_gcm_seal")),
            "{problems:?}"
        );
        // The same numbers measured without the features are fine.
        let scalar_box = json(
            false,
            2_000_000.0,
            900_000.0,
            400.0,
            &fake_scalar(),
            &fake_scalar(),
            hw_off(),
        );
        assert!(
            check_file(&scalar_box).is_empty(),
            "{:?}",
            check_file(&scalar_box)
        );
        // Forced scalar on a hardware box is likewise exempt.
        let forced = HwInfo {
            forced_scalar: true,
            aes_ni: false,
            pclmulqdq: false,
            ssse3: false,
            avx2: false,
        };
        let forced_file = json(
            false,
            2_000_000.0,
            900_000.0,
            400.0,
            &fake_scalar(),
            &fake_scalar(),
            forced,
        );
        assert!(
            check_file(&forced_file).is_empty(),
            "{:?}",
            check_file(&forced_file)
        );
    }

    #[test]
    fn crypto_section_carries_every_method_twice() {
        let body = crypto_json(&fake_crypto(), &fake_scalar(), 150.0);
        for &(_, k) in AEAD_METHODS {
            assert_eq!(
                body.matches(&format!("\"{k}_seal_mb_s\":")).count(),
                2,
                "{k} seal"
            );
            assert_eq!(
                body.matches(&format!("\"{k}_open_mb_s\":")).count(),
                2,
                "{k} open"
            );
            assert_eq!(
                body.matches(&format!("\"{k}_scalar_seal_mb_s\":")).count(),
                1,
                "{k} scalar seal"
            );
        }
    }

    fn fake_scale_json(speedup: f64) -> String {
        let mut s =
            String::from("{\n  \"schema\": 1,\n  \"bench\": \"scale\",\n  \"mode\": \"full\",\n");
        for stem in SCALE_STEMS {
            s.push_str(&format!("  \"{stem}_flows_per_sec\": 1000.0,\n"));
            s.push_str(&format!("  \"{stem}_rss_kb\": 5000,\n"));
        }
        s.push_str(&format!("  \"speedup_flows_100k\": {speedup:.2}\n}}\n"));
        s
    }

    #[test]
    fn scale_json_passes_check() {
        let body = fake_scale_json(42.0);
        assert!(
            check_scale_file(&body).is_empty(),
            "{:?}",
            check_scale_file(&body)
        );
    }

    #[test]
    fn scale_speedup_below_bar_is_rejected() {
        let problems = check_scale_file(&fake_scale_json(7.5));
        assert!(
            problems.iter().any(|p| p.contains("speedup_flows_100k")),
            "{problems:?}"
        );
    }

    #[test]
    fn scale_missing_config_is_rejected() {
        let body = fake_scale_json(42.0).replace("hybrid_1m", "hybrid_2m");
        let problems = check_scale_file(&body);
        assert!(
            problems.iter().any(|p| p.contains("hybrid_1m")),
            "{problems:?}"
        );
    }

    fn fake_baserate_json(speedup: f64) -> String {
        let mut s = String::from(
            "{\n  \"schema\": 1,\n  \"bench\": \"baserate\",\n  \"mode\": \"full\",\n",
        );
        for stem in BASERATE_STEMS {
            s.push_str(&format!("  \"{stem}_flows_per_sec\": 1000.0,\n"));
            s.push_str(&format!("  \"{stem}_rss_kb\": 5000,\n"));
        }
        s.push_str(&format!("  \"speedup_mix_100k\": {speedup:.2}\n}}\n"));
        s
    }

    #[test]
    fn baserate_json_passes_check() {
        let body = fake_baserate_json(12.0);
        assert!(
            check_baserate_file(&body).is_empty(),
            "{:?}",
            check_baserate_file(&body)
        );
    }

    #[test]
    fn baserate_speedup_below_bar_is_rejected() {
        let problems = check_baserate_file(&fake_baserate_json(4.0));
        assert!(
            problems.iter().any(|p| p.contains("speedup_mix_100k")),
            "{problems:?}"
        );
    }

    #[test]
    fn baserate_missing_config_is_rejected() {
        let body = fake_baserate_json(12.0).replace("mix_1m_hybrid", "mix_2m_hybrid");
        let problems = check_baserate_file(&body);
        assert!(
            problems.iter().any(|p| p.contains("mix_1m_hybrid")),
            "{problems:?}"
        );
    }

    #[test]
    fn full_mode_substrate_gates_fig10_grid_speedup() {
        let good = json(
            false,
            2_000_000.0,
            900_000.0,
            400.0,
            &fake_crypto(),
            &fake_scalar(),
            hw_on(),
        );
        assert!(check_file(&good).is_empty(), "{:?}", check_file(&good));
        // Degrade the grid wall time until the speedup falls under the
        // floor; a full-mode file must then fail the check.
        let slow = json(
            false,
            2_000_000.0,
            900_000.0,
            100_000.0,
            &fake_crypto(),
            &fake_scalar(),
            hw_on(),
        );
        let problems = check_file(&slow);
        assert!(
            problems.iter().any(|p| p.contains("fig10_grid")),
            "{problems:?}"
        );
        // Quick files are exempt from the bar.
        let quick = json(
            true,
            2_000_000.0,
            900_000.0,
            100_000.0,
            &fake_crypto(),
            &fake_scalar(),
            hw_on(),
        );
        assert!(check_file(&quick).is_empty(), "{:?}", check_file(&quick));
    }

    #[test]
    fn fig10_floor_is_one_x_on_hardware_point_nine_on_scalar() {
        // 0.95x grid speedup: inside the scalar tolerance band, below
        // the hardware floor.
        let fig_ms = BASELINE_FIG10_GRID_MS / 0.95;
        let hw_file = json(
            false,
            2_000_000.0,
            900_000.0,
            fig_ms,
            &fake_crypto(),
            &fake_scalar(),
            hw_on(),
        );
        let problems = check_file(&hw_file);
        assert!(
            problems.iter().any(|p| p.contains("fig10_grid")),
            "{problems:?}"
        );
        let scalar_file = json(
            false,
            2_000_000.0,
            900_000.0,
            fig_ms,
            &fake_scalar(),
            &fake_scalar(),
            hw_off(),
        );
        assert!(
            check_file(&scalar_file).is_empty(),
            "{:?}",
            check_file(&scalar_file)
        );
    }

    #[test]
    fn extract_number_reads_first_occurrence() {
        let t = "{\"a\": 12.5, \"b\": -3}";
        assert_eq!(extract_number(t, "a"), Some(12.5));
        assert_eq!(extract_number(t, "b"), Some(-3.0));
        assert_eq!(extract_number(t, "c"), None);
    }
}
