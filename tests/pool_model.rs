//! Model check: the buffer pool under arbitrary access patterns behaves
//! exactly like the raw store (contents), while hit counting stays
//! consistent (accounting).

use smadb::storage::{BufferPool, MemStore, PageStore, PrivateFrame, PAGE_SIZE};
use smadb::types::StdRng;

#[derive(Debug, Clone)]
enum Op {
    Read(u8),
    /// A read through a private frame: evicts nothing once the pool is full.
    ReadPrivate(u8),
    Write(u8, u8),
    Flush,
    Cold,
}

fn random_ops(rng: &mut StdRng) -> Vec<Op> {
    let n = rng.random_range(0..200usize);
    (0..n)
        .map(|_| match rng.random_range(0..5u32) {
            0 => Op::Read(rng.random_range(0..12u8)),
            1 => Op::ReadPrivate(rng.random_range(0..12u8)),
            2 => Op::Write(rng.random_range(0..12u8), rng.random_range(0..=255u8)),
            3 => Op::Flush,
            _ => Op::Cold,
        })
        .collect()
}

#[test]
fn pool_is_transparent() {
    let mut rng = StdRng::seed_from_u64(0xB0F0_0001);
    for case in 0..64 {
        let ops = random_ops(&mut rng);
        let capacity = rng.random_range(1..6usize);
        let n_pages = 12u32;
        let pool = {
            let mut store = MemStore::new();
            for _ in 0..n_pages {
                store.allocate().unwrap();
            }
            BufferPool::new(Box::new(store), capacity)
        };
        assert_eq!(pool.shard_count(), 1, "case {case}");
        // The model: raw page contents.
        let mut model = vec![[0u8; PAGE_SIZE]; n_pages as usize];
        let mut frame = PrivateFrame::new();
        let resident = |pool: &BufferPool| -> Vec<bool> {
            (0..n_pages).map(|p| pool.is_resident(p)).collect()
        };
        for op in ops {
            match op {
                Op::Read(p) => {
                    let p = (p as u32) % n_pages;
                    let got = pool.with_page(p, |d| d[0]).unwrap();
                    assert_eq!(got, model[p as usize][0], "case {case}");
                }
                Op::ReadPrivate(p) => {
                    let p = (p as u32) % n_pages;
                    let mut expected = resident(&pool);
                    // Pools this small have one shard: a miss installs
                    // only while the whole pool has a free frame.
                    if expected.iter().filter(|&&r| r).count() < capacity {
                        expected[p as usize] = true;
                    }
                    let got = pool.with_page_private(p, &mut frame, |d| d[0]).unwrap();
                    assert_eq!(got, model[p as usize][0], "case {case}");
                    assert_eq!(resident(&pool), expected, "case {case}");
                }
                Op::Write(p, v) => {
                    let p = (p as u32) % n_pages;
                    pool.with_page_mut(p, |d| d[0] = v).unwrap();
                    model[p as usize][0] = v;
                }
                Op::Flush => pool.flush_all().unwrap(),
                Op::Cold => pool.clear_cache().unwrap(),
            }
        }
        // Final state: every page visible through the pool matches the model.
        for p in 0..n_pages {
            let got = pool.with_page(p, |d| d[0]).unwrap();
            assert_eq!(got, model[p as usize][0], "case {case}");
        }
        // Accounting sanity: hits + misses = logical, classification splits misses.
        let s = pool.stats();
        assert!(s.physical_reads <= s.logical_reads, "case {case}");
        assert_eq!(
            s.sequential_reads + s.random_reads,
            s.physical_reads,
            "case {case}"
        );
        assert!((0.0..=1.0).contains(&s.hit_ratio()), "case {case}");
    }
}

/// With capacity >= working set, a second pass is all hits.
#[test]
fn warm_pass_is_free() {
    for pages in 1u32..8 {
        let pool = {
            let mut store = MemStore::new();
            for _ in 0..pages {
                store.allocate().unwrap();
            }
            BufferPool::new(Box::new(store), 16)
        };
        for p in 0..pages {
            pool.with_page(p, |_| ()).unwrap();
        }
        pool.reset_stats();
        for p in 0..pages {
            pool.with_page(p, |_| ()).unwrap();
        }
        assert_eq!(pool.stats().physical_reads, 0);
        assert_eq!(pool.stats().logical_reads, pages as u64);
    }
}
