//! Model-checked harness for the buffer pool's stats ledger.
//!
//! Compiled only under `RUSTFLAGS="--cfg cpq_model"`. The positive models
//! run the *real* `BufferPool` — state mutex, file `RwLock`, miss I/O
//! outside the state lock — and check the accounting contract the
//! integration tests assert statistically: `logical_reads == hits + misses`
//! in every observable state, `io.reads == misses` at quiescence but only
//! `io.reads >= misses` mid-flight (the physical read of an in-flight miss
//! lands before its accounting), and a decoded read whose decode runs
//! outside the state lock never installs a decode of bytes a racing
//! `write_page` replaced. The negative models reintroduce a lost-update
//! accounting bug and a stale-decode install, and pin the PCT seeds that
//! expose them.
#![cfg(cpq_model)]

use cpq_check::sync::atomic::{AtomicU64, Ordering};
use cpq_check::sync::{Arc, Mutex};
use cpq_check::thread;
use cpq_check::{model_dfs, model_pct, try_model_pct, DfsOptions, PctOptions};
use cpq_storage::{BufferPool, MemPageFile, PageId, StorageResult};

/// A 2-frame pool over three written pages; stats reset to zero.
fn small_pool() -> (Arc<BufferPool>, Vec<PageId>) {
    let pool = Arc::new(BufferPool::with_lru(Box::new(MemPageFile::new(16)), 2));
    let ids: Vec<PageId> = (0..3u8)
        .map(|i| {
            let id = pool.allocate().expect("allocate");
            pool.write_page(id, &[i; 16]).expect("write");
            id
        })
        .collect();
    pool.reset_stats();
    (pool, ids)
}

#[test]
fn dfs_duplicate_miss_keeps_ledger_exact() {
    // Two threads fault the *same* cold page: the duplicate-miss path (both
    // count a miss and a physical read; one installs, the other keeps the
    // existing frame). Every interleaving within the bound must keep the
    // books exact at quiescence and serve the right bytes.
    let report = model_dfs(DfsOptions::smoke(), || {
        let (pool, ids) = small_pool();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let id = ids[0];
                thread::spawn(move || {
                    let bytes = pool.read_page(id).expect("read");
                    assert!(bytes.iter().all(|&b| b == 0), "page 0 holds its pattern");
                })
            })
            .collect();
        for r in readers {
            r.join().expect("reader");
        }
        let (buf, io) = pool.stats_snapshot();
        assert_eq!(buf.logical_reads, 2);
        assert_eq!(buf.hits + buf.misses, buf.logical_reads, "ledger exact");
        assert_eq!(io.reads, buf.misses, "books balance at quiescence");
        assert!(buf.misses >= 1, "a cold page faults at least once");
    });
    assert!(report.complete, "the DFS must exhaust the interleavings");
    assert!(report.schedules > 1, "explored {}", report.schedules);
}

#[test]
fn dfs_snapshot_mid_flight_contract_holds() {
    // A snapshot raced against one in-flight miss: the ledger equality must
    // hold in *every* snapshot (it lives under one mutex), while the
    // physical-vs-accounted bridge may transiently run ahead — the exact
    // contract `stats_snapshot` documents, and the one the integration
    // test `concurrent_stats.rs` asserted too strongly before this harness
    // existed.
    let report = model_dfs(DfsOptions::smoke(), || {
        let (pool, ids) = small_pool();
        let reader = {
            let pool = Arc::clone(&pool);
            let id = ids[1];
            thread::spawn(move || {
                pool.read_page(id).expect("read");
            })
        };
        let (buf, io) = pool.stats_snapshot();
        assert_eq!(
            buf.hits + buf.misses,
            buf.logical_reads,
            "ledger exact mid-flight"
        );
        assert!(io.reads >= buf.misses, "io.reads never trails misses");
        reader.join().expect("reader");
        let (buf, io) = pool.stats_snapshot();
        assert_eq!(io.reads, buf.misses, "books balance at quiescence");
        assert_eq!(buf.logical_reads, 1);
    });
    assert!(report.complete);
}

#[test]
fn pct_failing_reads_never_unbalance_the_books() {
    // The model twin of the integration test of the same name: a failing
    // (out-of-bounds) read races a valid one across 200 seeded schedules;
    // neither counter may move on the failure.
    let opts = PctOptions::from_env();
    let want = opts.seeds.end - opts.seeds.start;
    let n = model_pct(opts, || {
        let (pool, ids) = small_pool();
        let failer = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || {
                assert!(
                    pool.read_page(PageId(u32::MAX)).is_err(),
                    "out-of-bounds read must fail"
                );
            })
        };
        let pool2 = Arc::clone(&pool);
        let id = ids[2];
        let reader = thread::spawn(move || {
            pool2.read_page(id).expect("valid read");
        });
        failer.join().expect("failer");
        reader.join().expect("reader");
        let (buf, io) = pool.stats_snapshot();
        assert_eq!(buf.logical_reads, 1, "only the successful read counts");
        assert_eq!(buf.hits + buf.misses, buf.logical_reads);
        assert_eq!(io.reads, buf.misses);
    });
    assert_eq!(n, want);
}

/// The decode every decoded-read model uses: the page's first byte.
fn first_byte(_: PageId, bytes: &[u8]) -> StorageResult<u8> {
    Ok(bytes[0])
}

#[test]
fn dfs_decode_install_races_write_page() {
    // A decoded read of a resident, not-yet-decoded page decodes with the
    // state lock released and then installs its decode; a `write_page`
    // races it. In every interleaving the reader gets a decode of one of
    // the two versions, the books stay exact, and afterwards a decoded read
    // sees the written bytes: the decode of the replaced bytes is never
    // installed over the rewrite.
    let report = model_dfs(DfsOptions::smoke(), || {
        let (pool, ids) = small_pool();
        let id = ids[0];
        pool.read_page(id).expect("fault in"); // resident, no decode yet
        let reader = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || {
                let d = pool.read_decoded(id, first_byte).expect("read");
                assert!(*d == 0 || *d == 9, "decode of a version that existed");
            })
        };
        let writer = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || pool.write_page(id, &[9; 16]).expect("write"))
        };
        reader.join().expect("reader");
        writer.join().expect("writer");
        let d = pool.read_decoded(id, first_byte).expect("read");
        assert_eq!(*d, 9, "stale decode served after write_page");
        let (buf, io) = pool.stats_snapshot();
        assert_eq!(buf.logical_reads, 3);
        assert_eq!(
            (buf.hits, buf.misses),
            (2, 1),
            "decodes never move counters"
        );
        assert_eq!(io.reads, buf.misses);
    });
    assert!(report.complete, "the DFS must exhaust the interleavings");
    assert!(report.schedules > 1, "explored {}", report.schedules);
}

/// The deliberately-broken decode install: a reader copies a frame's bytes,
/// decodes them with the lock released, and installs the decode without
/// checking that the frame still holds those bytes — so a `write_page`
/// landing in between leaves the old decode cached beside the new bytes.
fn broken_install_model() {
    struct Frame {
        data: Arc<[u8]>,
        decoded: Option<u8>,
    }
    let frame = Arc::new(Mutex::new(Frame {
        data: Arc::from(&[0u8][..]),
        decoded: None,
    }));
    let reader = {
        let frame = Arc::clone(&frame);
        thread::spawn(move || {
            let data = frame.lock().expect("model lock").data.clone();
            let decoded = data[0]; // the decode, outside the lock
            let mut f = frame.lock().expect("model lock");
            // BUG: no check that `f.data` is still `data`.
            if f.decoded.is_none() {
                f.decoded = Some(decoded);
            }
        })
    };
    let writer = {
        let frame = Arc::clone(&frame);
        thread::spawn(move || {
            let mut f = frame.lock().expect("model lock");
            f.data = Arc::from(&[9u8][..]);
            f.decoded = None;
        })
    };
    reader.join().expect("reader");
    writer.join().expect("writer");
    let f = frame.lock().expect("model lock");
    let served = f.decoded.unwrap_or(f.data[0]);
    assert_eq!(served, f.data[0], "stale decode served");
}

/// The PCT seed that exposes [`broken_install_model`], pinned by
/// [`broken_install_is_found_and_seed_replays`].
const PINNED_STALE_DECODE_SEED: u64 = 1;

#[test]
fn broken_install_is_found_and_seed_replays() {
    let failure = try_model_pct(PctOptions::default(), broken_install_model)
        .expect_err("the stale install must surface within 200 seeds");
    assert!(
        failure.message.contains("stale decode served"),
        "unexpected failure: {failure}"
    );
    let seed = failure.seed.expect("pct failures carry their seed");
    let again = try_model_pct(PctOptions::one_seed(seed), broken_install_model)
        .expect_err("the seed alone must reproduce the failure");
    assert_eq!(again.schedule, failure.schedule, "seed replay is exact");
    assert_eq!(
        seed, PINNED_STALE_DECODE_SEED,
        "the first failing seed moved; update PINNED_STALE_DECODE_SEED"
    );
}

#[test]
#[should_panic(expected = "stale decode served")]
fn pinned_stale_decode_seed_still_fails() {
    let _ = cpq_check::model_pct(
        PctOptions::one_seed(PINNED_STALE_DECODE_SEED),
        broken_install_model,
    );
}

/// The deliberately-broken ledger: misses accounted by a non-atomic
/// load/store on a shared counter instead of inside the pool's critical
/// section — the lost-update flavor of the accounting bug the pool's
/// "count in the same critical section" rule exists to prevent.
fn broken_ledger_model() {
    let misses = Arc::new(AtomicU64::new(0));
    let ledger = Arc::new(Mutex::new(0u64)); // logical_reads, kept correctly
    let fault_threads: Vec<_> = (0..2)
        .map(|_| {
            let misses = Arc::clone(&misses);
            let ledger = Arc::clone(&ledger);
            thread::spawn(move || {
                *ledger.lock().expect("model lock") += 1;
                // BUG: read-modify-write outside any critical section.
                let v = misses.load(Ordering::SeqCst);
                misses.store(v + 1, Ordering::SeqCst);
            })
        })
        .collect();
    for t in fault_threads {
        t.join().expect("fault thread");
    }
    let logical = *ledger.lock().expect("model lock");
    assert_eq!(
        misses.load(Ordering::SeqCst),
        logical,
        "ledger out of balance"
    );
}

/// The PCT seed that exposes [`broken_ledger_model`], pinned by
/// [`broken_ledger_is_found_and_seed_replays`].
const PINNED_LEDGER_SEED: u64 = 1;

#[test]
fn broken_ledger_is_found_and_seed_replays() {
    let failure = try_model_pct(PctOptions::default(), broken_ledger_model)
        .expect_err("the lost update must surface within 200 seeds");
    assert!(
        failure.message.contains("ledger out of balance"),
        "unexpected failure: {failure}"
    );
    let seed = failure.seed.expect("pct failures carry their seed");
    let again = try_model_pct(PctOptions::one_seed(seed), broken_ledger_model)
        .expect_err("the seed alone must reproduce the failure");
    assert_eq!(again.schedule, failure.schedule, "seed replay is exact");
    assert_eq!(
        seed, PINNED_LEDGER_SEED,
        "the first failing seed moved; update PINNED_LEDGER_SEED"
    );
}

#[test]
#[should_panic(expected = "ledger out of balance")]
fn pinned_ledger_seed_still_fails() {
    let _ = cpq_check::model_pct(
        PctOptions::one_seed(PINNED_LEDGER_SEED),
        broken_ledger_model,
    );
}
