//! Per-flow TCP sender/receiver state machines.
//!
//! A deliberately small but behaviorally faithful TCP: slow start and AIMD
//! congestion avoidance, duplicate-ACK fast retransmit, retransmission
//! timeouts with exponential backoff, cumulative ACKs with out-of-order
//! buffering, and FIN on completion (the signal PathDump's trajectory
//! memory uses for eviction, §3.2).
//!
//! The retransmission counters exported here replace the paper's
//! `tcpretrans` (perf-tools) probe: the active monitoring module reads
//! them to raise `POOR_PERF` alarms (§3.2).

use pathdump_topology::{FlowId, HostId, Nanos, MILLIS};
use std::collections::BTreeMap;

/// Static description of one flow to run.
#[derive(Clone, Copy, Debug)]
pub struct FlowSpec {
    /// The 5-tuple (data direction).
    pub flow: FlowId,
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Bytes to transfer.
    pub size: u64,
    /// When the sender starts.
    pub start: Nanos,
}

/// Transport configuration.
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Maximum segment size in bytes.
    pub mss: u32,
    /// Base retransmission timeout (the paper's "default TCP timeout value"
    /// of 200 ms, §4.6).
    pub base_rto: Nanos,
    /// Initial congestion window in segments.
    pub init_cwnd: f64,
    /// Slow-start threshold in segments at flow start.
    pub init_ssthresh: f64,
    /// Maximum RTO backoff doublings.
    pub max_backoff: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            base_rto: Nanos(200 * MILLIS),
            init_cwnd: 10.0,
            init_ssthresh: 64.0,
            max_backoff: 6,
        }
    }
}

/// Sender-side connection state.
#[derive(Clone, Debug)]
pub struct SenderState {
    /// Next byte to transmit for the first time.
    pub next_seq: u64,
    /// Highest cumulative ACK received.
    pub acked: u64,
    /// Congestion window, in segments.
    pub cwnd: f64,
    /// Slow-start threshold, in segments.
    pub ssthresh: f64,
    /// Consecutive duplicate ACKs seen.
    pub dup_acks: u32,
    /// Current RTO backoff exponent.
    pub backoff: u32,
    /// Timer epoch (stale-timer suppression).
    pub timer_epoch: u32,
    /// Total retransmitted segments.
    pub retrans_total: u64,
    /// Retransmissions by fast retransmit.
    pub fast_retrans: u64,
    /// Retransmissions by timeout.
    pub timeout_retrans: u64,
    /// Retransmissions since the last forward progress.
    pub consecutive_retrans: u32,
    /// Largest `consecutive_retrans` ever observed.
    pub max_consecutive_retrans: u32,
    /// Set once every byte is acknowledged.
    pub completed_at: Option<Nanos>,
    /// FIN transmitted.
    pub fin_sent: bool,
    /// Started (first segment sent).
    pub started: bool,
}

impl SenderState {
    /// Fresh sender state under a configuration.
    pub fn new(cfg: &TcpConfig) -> Self {
        SenderState {
            next_seq: 0,
            acked: 0,
            cwnd: cfg.init_cwnd,
            ssthresh: cfg.init_ssthresh,
            dup_acks: 0,
            backoff: 0,
            timer_epoch: 0,
            retrans_total: 0,
            fast_retrans: 0,
            timeout_retrans: 0,
            consecutive_retrans: 0,
            max_consecutive_retrans: 0,
            completed_at: None,
            fin_sent: false,
            started: false,
        }
    }

    /// Bytes in flight.
    pub fn inflight(&self) -> u64 {
        self.next_seq - self.acked
    }

    /// Current effective RTO including backoff.
    pub fn rto(&self, cfg: &TcpConfig) -> Nanos {
        Nanos(cfg.base_rto.0 << self.backoff.min(cfg.max_backoff))
    }

    /// Window in bytes.
    pub fn window_bytes(&self, cfg: &TcpConfig) -> u64 {
        (self.cwnd.max(1.0) * cfg.mss as f64) as u64
    }

    /// Registers forward progress (a new cumulative ACK).
    pub fn on_progress(&mut self, ack: u64, cfg: &TcpConfig) {
        debug_assert!(ack > self.acked);
        self.acked = ack;
        if self.next_seq < self.acked {
            // A retransmission can cover bytes past next_seq bookkeeping.
            self.next_seq = self.acked;
        }
        self.dup_acks = 0;
        self.backoff = 0;
        self.consecutive_retrans = 0;
        if self.cwnd < self.ssthresh {
            self.cwnd += 1.0;
        } else {
            self.cwnd += 1.0 / self.cwnd;
        }
        let _ = cfg;
    }

    /// Registers a duplicate ACK; returns true when fast retransmit fires.
    pub fn on_dup_ack(&mut self) -> bool {
        self.dup_acks += 1;
        if self.dup_acks == 3 {
            self.ssthresh = (self.cwnd / 2.0).max(2.0);
            self.cwnd = self.ssthresh;
            self.note_retransmission();
            self.fast_retrans += 1;
            true
        } else {
            false
        }
    }

    /// Registers a timeout; collapses the window.
    pub fn on_timeout(&mut self, cfg: &TcpConfig) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.backoff = (self.backoff + 1).min(cfg.max_backoff);
        self.dup_acks = 0;
        self.note_retransmission();
        self.timeout_retrans += 1;
        // A timeout invalidates in-flight accounting: resend from `acked`.
        self.next_seq = self.acked;
    }

    fn note_retransmission(&mut self) {
        self.retrans_total += 1;
        self.consecutive_retrans += 1;
        self.max_consecutive_retrans = self.max_consecutive_retrans.max(self.consecutive_retrans);
    }
}

/// Receiver-side connection state.
#[derive(Clone, Debug, Default)]
pub struct ReceiverState {
    /// Next expected in-order byte.
    pub rcv_next: u64,
    /// Out-of-order segments: start -> length.
    ooo: BTreeMap<u64, u32>,
    /// Total payload bytes received (including retransmitted duplicates).
    pub bytes_received: u64,
    /// Unique in-order bytes delivered.
    pub bytes_in_order: u64,
    /// FIN observed at or below `rcv_next`.
    pub fin_seen: bool,
    /// First data arrival.
    pub first_arrival: Option<Nanos>,
    /// Most recent data arrival.
    pub last_arrival: Option<Nanos>,
}

impl ReceiverState {
    /// Ingests a data segment; returns the cumulative ACK to send.
    pub fn on_data(&mut self, seq: u64, len: u32, fin: bool, now: Nanos) -> u64 {
        self.first_arrival.get_or_insert(now);
        self.last_arrival = Some(now);
        self.bytes_received += len as u64;
        if len > 0 {
            let end = seq + len as u64;
            if end > self.rcv_next {
                if seq <= self.rcv_next {
                    self.rcv_next = end;
                } else {
                    // Merge overlapping out-of-order segments conservatively.
                    let cur = self.ooo.entry(seq).or_insert(0);
                    *cur = (*cur).max(len);
                }
                // Drain any now-contiguous segments.
                while let Some((&s, &l)) = self.ooo.range(..=self.rcv_next).next() {
                    self.ooo.remove(&s);
                    let e = s + l as u64;
                    if e > self.rcv_next {
                        self.rcv_next = e;
                    }
                }
            }
            self.bytes_in_order = self.rcv_next;
        }
        if fin && seq <= self.rcv_next {
            self.fin_seen = true;
        }
        self.rcv_next
    }
}

/// Encodes a host timer token: flow index, kind, epoch.
pub mod token {
    /// Timer kinds multiplexed on one token space.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum Kind {
        /// Flow start.
        Start,
        /// Retransmission timeout.
        Rto,
    }

    /// Packs a token.
    pub fn pack(flow_idx: u32, kind: Kind, epoch: u32) -> u64 {
        let k = match kind {
            Kind::Start => 0u64,
            Kind::Rto => 1,
        };
        ((flow_idx as u64) << 32) | (k << 30) | (epoch as u64 & 0x3FFF_FFFF)
    }

    /// Unpacks a token.
    pub fn unpack(tok: u64) -> (u32, Kind, u32) {
        let kind = match (tok >> 30) & 0x3 {
            0 => Kind::Start,
            _ => Kind::Rto,
        };
        ((tok >> 32) as u32, kind, (tok & 0x3FFF_FFFF) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TcpConfig {
        TcpConfig::default()
    }

    #[test]
    fn sender_progress_grows_window() {
        let c = cfg();
        let mut s = SenderState::new(&c);
        s.next_seq = 20_000;
        let w0 = s.cwnd;
        s.on_progress(1460, &c);
        assert!(s.cwnd > w0, "slow start grows cwnd");
        assert_eq!(s.acked, 1460);
        assert_eq!(s.inflight(), 20_000 - 1460);
    }

    #[test]
    fn congestion_avoidance_after_ssthresh() {
        let c = cfg();
        let mut s = SenderState::new(&c);
        s.cwnd = 100.0;
        s.ssthresh = 50.0;
        s.next_seq = 1_000_000;
        s.on_progress(1460, &c);
        assert!(s.cwnd - 100.0 < 0.5, "linear growth in CA: {}", s.cwnd);
    }

    #[test]
    fn three_dup_acks_trigger_fast_retransmit() {
        let c = cfg();
        let mut s = SenderState::new(&c);
        s.cwnd = 20.0;
        s.next_seq = 50_000;
        assert!(!s.on_dup_ack());
        assert!(!s.on_dup_ack());
        assert!(s.on_dup_ack(), "third dupack fires");
        assert_eq!(s.fast_retrans, 1);
        assert_eq!(s.cwnd, 10.0);
        assert!(!s.on_dup_ack(), "only once per recovery");
    }

    #[test]
    fn timeout_collapses_window_and_backs_off() {
        let c = cfg();
        let mut s = SenderState::new(&c);
        s.cwnd = 32.0;
        s.next_seq = 100_000;
        s.acked = 20_000;
        let rto0 = s.rto(&c);
        s.on_timeout(&c);
        assert_eq!(s.cwnd, 1.0);
        assert_eq!(s.next_seq, 20_000, "resend from the hole");
        assert_eq!(s.rto(&c), Nanos(rto0.0 * 2));
        s.on_timeout(&c);
        assert_eq!(s.rto(&c), Nanos(rto0.0 * 4));
        assert_eq!(s.consecutive_retrans, 2);
        // Progress resets backoff and the consecutive counter.
        s.on_progress(21_460, &c);
        assert_eq!(s.rto(&c), rto0);
        assert_eq!(s.consecutive_retrans, 0);
        assert_eq!(s.max_consecutive_retrans, 2);
    }

    #[test]
    fn receiver_in_order() {
        let mut r = ReceiverState::default();
        assert_eq!(r.on_data(0, 1000, false, Nanos(1)), 1000);
        assert_eq!(r.on_data(1000, 500, false, Nanos(2)), 1500);
        assert_eq!(r.bytes_received, 1500);
        assert!(!r.fin_seen);
    }

    #[test]
    fn receiver_out_of_order_reassembly() {
        let mut r = ReceiverState::default();
        assert_eq!(r.on_data(1000, 1000, false, Nanos(1)), 0, "gap -> dup ack");
        assert_eq!(r.on_data(2000, 1000, false, Nanos(2)), 0);
        assert_eq!(r.on_data(0, 1000, false, Nanos(3)), 3000, "hole filled");
    }

    #[test]
    fn receiver_duplicate_segments_idempotent() {
        let mut r = ReceiverState::default();
        r.on_data(0, 1000, false, Nanos(1));
        assert_eq!(r.on_data(0, 1000, false, Nanos(2)), 1000);
        assert_eq!(r.rcv_next, 1000);
        assert_eq!(r.bytes_in_order, 1000);
    }

    #[test]
    fn fin_requires_in_order_delivery() {
        let mut r = ReceiverState::default();
        r.on_data(2000, 0, true, Nanos(1));
        assert!(!r.fin_seen, "FIN beyond the hole must wait");
        r.on_data(0, 1000, false, Nanos(2));
        r.on_data(1000, 1000, false, Nanos(3));
        r.on_data(2000, 0, true, Nanos(4));
        assert!(r.fin_seen);
    }

    #[test]
    fn token_roundtrip() {
        for (idx, kind, epoch) in [
            (0u32, token::Kind::Start, 0u32),
            (77, token::Kind::Rto, 12345),
            (u32::MAX, token::Kind::Rto, 0x3FFF_FFFF),
        ] {
            let t = token::pack(idx, kind, epoch);
            assert_eq!(token::unpack(t), (idx, kind, epoch));
        }
    }
}
