//! PathDump debugging applications (§2.3, §4, Table 2).
//!
//! Each module is one of the paper's applications, built strictly on the
//! Host/Controller API plus alarms — no application reads simulator ground
//! truth (that is reserved for tests, which verify the applications'
//! verdicts against it). Every query goes through the `rpc` plane's
//! [`execute`](pathdump_rpc::execute), one host or many:
//!
//! | Module | Paper section | What it does |
//! |---|---|---|
//! | [`conformance`] | §4.1, Fig. 4 | path conformance + wrong-switchID pinpointing |
//! | [`load_imbalance`] | §4.2, Figs. 5–6 | ECMP and packet-spraying diagnosis |
//! | [`silent_drops`] | §4.3, Figs. 7–8 | MAX-COVERAGE localization of silent drops |
//! | [`blackhole`] | §4.4 | search-space reduction for blackholes |
//! | [`routing_loop`] | §4.5, Fig. 9 | real-time loop trapping |
//! | [`outcast`] | §4.6, Fig. 10 | TCP outcast diagnosis |
//! | [`traffic`] | §2.3, Table 2 | top-k, heavy hitters, traffic matrix, congested link, DDoS, isolation |
//! | [`scenarios`] | §5.1 | the shared fat-tree testbed harness |

pub mod blackhole;
pub mod conformance;
pub mod load_imbalance;
pub mod outcast;
pub mod routing_loop;
pub mod scenarios;
pub mod silent_drops;
pub mod traffic;

pub use scenarios::Testbed;
