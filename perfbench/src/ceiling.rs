//! Hardware ceilings calibrated in the benchmark's own process, so a
//! layer's rate can be read as a fraction of what the machine allows.

use std::fs::File;
use std::hint::black_box;
use std::io::{Read as _, Write as _};
use std::path::Path;
use std::time::Instant;

use randcast_stats::seed::splitmix64;

use crate::median;

/// Ceilings and the sizes they were measured at.
#[derive(Clone, Debug)]
pub struct Ceilings {
    /// Plain sequential read of a file just written (served from the
    /// page cache), GiB/s.
    pub seq_read_gibps: f64,
    /// Size of that file, bytes.
    pub seq_read_bytes: usize,
    /// Streaming `u32` sum over an array of at least 4× the LLC, GiB/s.
    pub stream_gibps: f64,
    /// Size of that array, bytes.
    pub stream_bytes: usize,
    /// SplitMix64 words per second on one thread.
    pub splitmix_words_per_s: f64,
}

impl Ceilings {
    /// Measures all three. `file_bytes` sizes the read (one shard
    /// segment); `llc_bytes` sizes the streaming array (4×, at least
    /// 64 MiB when the LLC is unknown).
    ///
    /// # Panics
    ///
    /// Panics if the scratch file cannot be written or read.
    #[must_use]
    pub fn measure(dir: &Path, file_bytes: usize, llc_bytes: u64) -> Self {
        let (seq_read_gibps, seq_read_bytes) = seq_read(dir, file_bytes);
        let stream_bytes = usize::try_from(llc_bytes.max(16 << 20) * 4).unwrap_or(usize::MAX);
        Ceilings {
            seq_read_gibps,
            seq_read_bytes,
            stream_gibps: stream(stream_bytes),
            stream_bytes,
            splitmix_words_per_s: splitmix(),
        }
    }
}

const GIB: f64 = (1u64 << 30) as f64;

fn seq_read(dir: &Path, bytes: usize) -> (f64, usize) {
    std::fs::create_dir_all(dir).expect("create the ceiling scratch directory");
    let path = dir.join(format!("ceiling-{}.bin", std::process::id()));
    let chunk: Vec<u8> = (0..1usize << 20).map(|i| (i % 251) as u8).collect();
    let chunks = bytes.div_ceil(chunk.len()).max(1);
    {
        let mut f = File::create(&path).expect("create the ceiling file");
        for _ in 0..chunks {
            f.write_all(&chunk).expect("write the ceiling file");
        }
        f.flush().expect("flush the ceiling file");
    }
    let total = chunks * chunk.len();
    let mut buf = vec![0u8; 1 << 20];
    let mut rates = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let mut f = File::open(&path).expect("open the ceiling file");
        let mut sum = 0u64;
        loop {
            let got = f.read(&mut buf).expect("read the ceiling file");
            if got == 0 {
                break;
            }
            sum = sum.wrapping_add(u64::from(buf[got - 1]));
        }
        black_box(sum);
        rates.push(total as f64 / GIB / start.elapsed().as_secs_f64());
    }
    let _ = std::fs::remove_file(&path);
    (median(&rates), total)
}

fn stream(bytes: usize) -> f64 {
    let words = bytes / 4;
    let data: Vec<u32> = (0..words).map(|i| i as u32).collect();
    let mut rates = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        let sum = black_box(&data)
            .iter()
            .fold(0u64, |acc, &w| acc.wrapping_add(u64::from(w)));
        black_box(sum);
        rates.push((words * 4) as f64 / GIB / start.elapsed().as_secs_f64());
    }
    median(&rates)
}

fn splitmix() -> f64 {
    const WORDS: u64 = 50_000_000;
    let mut rates = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        let mut acc = 0u64;
        for i in 0..WORDS {
            acc ^= splitmix64(black_box(i));
        }
        black_box(acc);
        rates.push(WORDS as f64 / start.elapsed().as_secs_f64());
    }
    median(&rates)
}
