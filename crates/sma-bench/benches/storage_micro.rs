//! Microbenchmarks of the storage substrate: tuple codec, slotted-page
//! operations, the page checksum, buffer-pool hit and miss paths, and a
//! private-frame scan of twice the pool's pages by one and two workers.
//! These bound the constant factors under every experiment (a SMA plan's
//! win is page-skipping, so the per-page costs here are the currency of
//! all the other numbers).

use sma_bench::harness::{black_box, Criterion};
use sma_bench::{criterion_group, criterion_main};

use sma_storage::page::{for_each_image, PageError};
use sma_storage::{
    crc32, BufferPool, MemStore, PageNo, PageStore, PrivateFrame, SlottedPage, PAGE_SIZE,
};
use sma_tpcd::{generate, Clustering, GenConfig};
use sma_types::row;

fn bench_storage(c: &mut Criterion) {
    let (_, items) = generate(&GenConfig::tiny(Clustering::Uniform));
    let schema = sma_tpcd::lineitem_schema();
    let tuple = items[0].to_tuple();
    let mut image = Vec::new();
    row::encode(&schema, &tuple, &mut image).unwrap();

    let mut group = c.benchmark_group("storage_micro");
    group.bench_function("codec/encode_lineitem", |b| {
        let mut buf = Vec::with_capacity(256);
        b.iter(|| {
            buf.clear();
            row::encode(&schema, &tuple, &mut buf).expect("encodable tuple");
            buf.len()
        })
    });
    group.bench_function("codec/decode_lineitem", |b| {
        b.iter(|| row::decode(&schema, &image).expect("valid image"))
    });
    group.bench_function("page/insert_until_full", |b| {
        b.iter(|| {
            let mut p = SlottedPage::new();
            let mut n = 0;
            while p.insert(&image).is_some() {
                n += 1;
            }
            n
        })
    });
    group.bench_function("page/iterate_full_page", |b| {
        let mut p = SlottedPage::new();
        while p.insert(&image).is_some() {}
        b.iter(|| p.iter().map(|(_, img)| img.len()).sum::<usize>())
    });
    group.bench_function("page/from_bytes_validate", |b| {
        let mut p = SlottedPage::new();
        while p.insert(&image).is_some() {}
        let bytes = *p.as_bytes();
        b.iter(|| SlottedPage::from_bytes(&bytes).expect("valid page"))
    });
    group.bench_function("checksum/crc32_page", |b| {
        // The footer CRC covers everything but its own four bytes.
        let mut p = SlottedPage::new();
        while p.insert(&image).is_some() {}
        let bytes = *p.as_bytes();
        let body = &bytes[..PAGE_SIZE - 4];
        b.iter(|| crc32(black_box(body)))
    });
    group.bench_function("pool/warm_hit", |b| {
        let pool = {
            let mut store = MemStore::new();
            for _ in 0..64 {
                store.allocate().unwrap();
            }
            BufferPool::new(Box::new(store), 128)
        };
        for p in 0..64 {
            pool.with_page(p, |_| ()).unwrap();
        }
        let mut p = 0u32;
        b.iter(|| {
            p = (p + 1) % 64;
            pool.with_page(p, |d| d[0]).unwrap()
        })
    });
    group.bench_function("pool/cold_miss_with_eviction", |b| {
        // Pages written through the pool carry a stamped footer, so every
        // miss below verifies a CRC the way a real table read does (a
        // never-written, all-zero page would skip the check).
        let pool = BufferPool::new(Box::new(MemStore::new()), 8);
        for _ in 0..64 {
            let p = pool.allocate().unwrap();
            pool.with_page_mut(p, |d| {
                let mut slotted = SlottedPage::new();
                while slotted.insert(&image).is_some() {}
                d.copy_from_slice(slotted.as_bytes());
            })
            .unwrap();
        }
        pool.flush_all().unwrap();
        let mut p = 0u32;
        b.iter(|| {
            p = (p + 9) % 64; // stride defeats the 8-frame pool
            pool.with_page(p, |d| d[0]).unwrap()
        })
    });
    // A full scan of twice the pool's pages through private frames, with
    // the second half resident, as creating a warehouse leaves a table:
    // every page of the first half misses and is read, verified and
    // visited past the full pool; every page of the second half is a hit.
    // Two workers split the pages in halves, so one takes every miss.
    let scan_pool = full_pages_pool(&image, 256, 512);
    for no in 256..512 {
        scan_pool.with_page(no, |_| ()).unwrap();
    }
    group.bench_function("pool/private_scan_1_worker", |b| {
        b.iter(|| private_scan(&scan_pool, 0..512))
    });
    group.bench_function("pool/private_scan_2_workers", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                let low = scope.spawn(|| private_scan(&scan_pool, 0..256));
                private_scan(&scan_pool, 256..512) + low.join().unwrap()
            })
        })
    });
    group.finish();
}

/// A pool of `capacity` frames over `pages` stamped pages full of
/// `image` tuples, nothing resident.
fn full_pages_pool(image: &[u8], capacity: usize, pages: u32) -> BufferPool {
    let pool = BufferPool::new(Box::new(MemStore::new()), capacity);
    let mut slotted = SlottedPage::new();
    while slotted.insert(image).is_some() {}
    for _ in 0..pages {
        let p = pool.allocate().unwrap();
        pool.with_page_mut(p, |d| d.copy_from_slice(slotted.as_bytes()))
            .unwrap();
    }
    pool.clear_cache().unwrap();
    pool
}

/// Visits every tuple image of `pages` through one private frame and
/// returns their total length.
fn private_scan(pool: &BufferPool, pages: std::ops::Range<PageNo>) -> usize {
    let mut frame = PrivateFrame::new();
    let mut bytes = 0;
    for no in pages {
        pool.with_page_private(no, &mut frame, |d| {
            for_each_image::<PageError, _>(d, |_, img| {
                bytes += img.len();
                Ok(())
            })
        })
        .unwrap()
        .unwrap();
    }
    bytes
}

criterion_group!(benches, bench_storage);
criterion_main!(benches);
