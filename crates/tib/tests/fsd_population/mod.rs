//! The `query_fsd` benchmark's store shape, for the store tests: one host
//! of a k-ary fat-tree (the benchmark's is k = 8), each record one flow from a uniformly drawn other
//! host over one of its real shortest paths into this host, 90 % mice and
//! 10 % elephants, start times uniform over an hour (so insertion order is
//! not stime order) and durations of 1 ms to 10 s. Such a host sees a few
//! hundred distinct paths at k = 8 and some thousands at k = 16.

use pathdump_tib::TibRecord;
use pathdump_topology::{FatTree, FatTreeParams, FlowId, HostId, Nanos, Path, UpDownRouting};

pub const HOUR_NS: u64 = 3_600_000_000_000;

/// SplitMix64, seeded per host.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// One host's record source. Its path tables are built up front, so that
/// drawing a record allocates only the record's own `Path`.
pub struct FsdPopulation {
    pub ft: FatTree,
    host: HostId,
    paths: Vec<Vec<Path>>,
    rng: Rng,
    drawn: usize,
}

impl FsdPopulation {
    pub fn new(host: u32, seed: u64, k: u16) -> Self {
        let ft = FatTree::build(FatTreeParams { k });
        let host = HostId(host);
        let n = ft.topology().num_hosts() as u32;
        let paths = (0..n)
            .map(|s| {
                if s == host.0 {
                    Vec::new()
                } else {
                    ft.all_paths(HostId(s), host)
                }
            })
            .collect();
        let rng = Rng(seed ^ u64::from(host.0).wrapping_mul(0xA076_1D64_78BD_642F));
        FsdPopulation {
            ft,
            host,
            paths,
            rng,
            drawn: 0,
        }
    }

    /// The next record; flows are unique up to 60 000 records per source.
    pub fn draw(&mut self) -> TibRecord {
        let topo = self.ft.topology();
        let n = self.paths.len() as u64;
        let src = (u64::from(self.host.0) + 1 + self.rng.below(n - 1)) % n;
        let choices = &self.paths[src as usize];
        let path = choices[self.rng.below(choices.len() as u64) as usize].clone();
        let bytes = if self.rng.below(10) < 9 {
            200 + self.rng.below(99_800)
        } else {
            100_000 + self.rng.below(29_900_000)
        };
        let stime = self.rng.below(HOUR_NS);
        let dur = 1_000_000 + self.rng.below(9_999_000_000);
        let sport = 1024 + (self.drawn % 60_000) as u16;
        self.drawn += 1;
        TibRecord {
            flow: FlowId::tcp(
                topo.host(HostId(src as u32)).ip,
                sport,
                topo.host(self.host).ip,
                80,
            ),
            path,
            stime: Nanos(stime),
            etime: Nanos(stime + dur),
            bytes,
            pkts: bytes / 1460 + 1,
        }
    }
}
