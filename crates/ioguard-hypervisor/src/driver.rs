//! The virtualization driver: translators and I/O controller models.
//!
//! The driver sits between the virtualization manager and the physical
//! device: a request-path translator turns virtualized I/O operations into
//! bottom-level instructions with a *bounded* worst-case translation time
//! (the real-time translators of BlueVisor \[6\]), the I/O controller clocks
//! payload bytes out at the device's line rate, and a response-path
//! translator carries results back through the pass-through response
//! channel.

/// The I/O protocols evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoProtocol {
    /// SPI at 50 Mbps (typical FPGA SPI master).
    Spi,
    /// I²C fast mode plus: 1 Mbps.
    I2c,
    /// Gigabit Ethernet: 1 Gbps (the case study's inbound path).
    Ethernet,
    /// FlexRay: 10 Mbps (the case study's outbound path).
    FlexRay,
}

impl IoProtocol {
    /// Line rate in bits per second.
    pub const fn bits_per_second(self) -> u64 {
        match self {
            IoProtocol::Spi => 50_000_000,
            IoProtocol::I2c => 1_000_000,
            IoProtocol::Ethernet => 1_000_000_000,
            IoProtocol::FlexRay => 10_000_000,
        }
    }

    /// Fixed per-frame overhead in bits (preamble, header, CRC, ACK…).
    pub const fn frame_overhead_bits(self) -> u64 {
        match self {
            IoProtocol::Spi => 16,
            IoProtocol::I2c => 29,
            IoProtocol::Ethernet => 304, // preamble+hdr+FCS+IFG of one frame
            IoProtocol::FlexRay => 80,
        }
    }

    /// Maximum payload bytes per frame.
    pub const fn max_frame_payload(self) -> u32 {
        match self {
            IoProtocol::Spi => 4096,
            IoProtocol::I2c => 256,
            IoProtocol::Ethernet => 1500,
            IoProtocol::FlexRay => 254,
        }
    }
}

/// The translator pair: bounded worst-case translation latency per I/O
/// operation, in nanoseconds (request + response path each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translator {
    /// Worst-case translation time of one operation, ns.
    pub wcet_ns: u64,
}

impl Translator {
    /// The calibrated BlueVisor-style translator: 240 ns worst case
    /// (24 cycles at 100 MHz).
    pub const fn real_time() -> Self {
        Self { wcet_ns: 240 }
    }
}

impl Default for Translator {
    fn default() -> Self {
        Self::real_time()
    }
}

/// A standardized I/O controller bound to one protocol.
///
/// # Example
///
/// ```
/// use ioguard_hypervisor::driver::{IoController, IoProtocol};
///
/// let eth = IoController::new(IoProtocol::Ethernet);
/// // 1500 B over GbE: ~12.3 µs of wire time.
/// let ns = eth.transfer_ns(1500);
/// assert!((12_000..13_500).contains(&ns), "{ns}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoController {
    protocol: IoProtocol,
    translator: Translator,
}

impl IoController {
    /// Creates a controller with the default real-time translator.
    pub fn new(protocol: IoProtocol) -> Self {
        Self {
            protocol,
            translator: Translator::real_time(),
        }
    }

    /// The protocol this controller drives.
    pub const fn protocol(self) -> IoProtocol {
        self.protocol
    }

    /// Pure wire time to move `bytes` of payload, in nanoseconds, including
    /// per-frame overhead and fragmentation.
    pub fn transfer_ns(self, bytes: u32) -> u64 {
        let p = self.protocol;
        let frames = bytes.div_ceil(p.max_frame_payload()).max(1) as u64;
        let bits = 8 * bytes as u64 + frames * p.frame_overhead_bits();
        // ns = bits / (bits/s) * 1e9 — computed without overflow.
        bits * 1_000_000_000 / p.bits_per_second()
    }

    /// End-to-end service time for one I/O operation of `bytes` payload:
    /// translation (request + response) plus wire time.
    pub fn service_ns(self, bytes: u32) -> u64 {
        self.translator
            .wcet_ns
            .saturating_mul(2)
            .saturating_add(self.transfer_ns(bytes))
    }

    /// Service time in hypervisor slots of `slot_ns` nanoseconds, rounded
    /// up (the executor owns whole slots).
    ///
    /// # Panics
    ///
    /// Panics if `slot_ns` is zero.
    pub fn service_slots(self, bytes: u32, slot_ns: u64) -> u64 {
        assert!(slot_ns > 0, "slot length must be positive");
        self.service_ns(bytes).div_ceil(slot_ns).max(1)
    }
}

/// Retry discipline of the per-transaction watchdog: how long a transaction
/// may stall before the driver retries it, how many retries are budgeted,
/// and the exponential backoff between attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Consecutive no-progress slots before a retry fires.
    pub timeout_slots: u64,
    /// Bounded retry budget per fault episode.
    pub max_retries: u32,
    /// Backoff after the first retry, in slots (each further retry doubles
    /// it, capped at `backoff_cap`).
    pub backoff_base: u64,
    /// Upper bound of the exponential backoff, in slots.
    pub backoff_cap: u64,
}

impl RetryPolicy {
    /// The calibrated default: 4-slot timeout, 3 retries, 2-slot base
    /// backoff capped at 64 slots.
    pub const fn real_time() -> Self {
        Self {
            timeout_slots: 4,
            max_retries: 3,
            backoff_base: 2,
            backoff_cap: 64,
        }
    }

    /// Backoff before retry `attempt` (1-based): `base · 2^(attempt-1)`,
    /// saturating, capped at `backoff_cap` and never below one slot.
    pub fn backoff_for(&self, attempt: u32) -> u64 {
        let doublings = attempt.saturating_sub(1).min(63);
        self.backoff_base
            .saturating_mul(1u64 << doublings)
            .clamp(1, self.backoff_cap.max(1))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::real_time()
    }
}

/// Outcome of one watchdog observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogVerdict {
    /// Still counting toward the timeout — keep waiting.
    Armed,
    /// The timeout fired: retry the transaction after `backoff_slots`.
    Retry {
        /// 1-based attempt number.
        attempt: u32,
        /// Backoff window before the retry, in slots.
        backoff_slots: u64,
    },
    /// The retry budget is exhausted — escalate (degrade).
    Exhausted,
}

/// Per-transaction watchdog: observes progress (or the lack of it) on the
/// device and drives the timeout → retry → backoff → exhaustion cycle.
///
/// # Example
///
/// ```
/// use ioguard_hypervisor::driver::{RetryPolicy, Watchdog, WatchdogVerdict};
///
/// let mut wd = Watchdog::new(RetryPolicy { timeout_slots: 2, max_retries: 1, backoff_base: 2, backoff_cap: 8 });
/// assert_eq!(wd.note_stall(0), WatchdogVerdict::Armed);
/// let v = wd.note_stall(1); // timeout: first retry, 2-slot backoff
/// assert_eq!(v, WatchdogVerdict::Retry { attempt: 1, backoff_slots: 2 });
/// assert!(wd.in_backoff(2) && !wd.in_backoff(4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchdog {
    policy: RetryPolicy,
    stalled: u64,
    attempt: u32,
    backoff_until: u64,
    episode: bool,
}

impl Watchdog {
    /// Creates a watchdog with the given retry policy.
    pub const fn new(policy: RetryPolicy) -> Self {
        Self {
            policy,
            stalled: 0,
            attempt: 0,
            backoff_until: 0,
            episode: false,
        }
    }

    /// True while the post-retry backoff window is open at `now`.
    pub fn in_backoff(&self, now: u64) -> bool {
        now < self.backoff_until
    }

    /// Reports one granted slot in which the transaction made no progress.
    /// Returns the escalation verdict; after [`WatchdogVerdict::Exhausted`]
    /// the cycle restarts so a persistent fault escalates repeatedly.
    pub fn note_stall(&mut self, now: u64) -> WatchdogVerdict {
        self.episode = true;
        self.stalled = self.stalled.saturating_add(1);
        if self.stalled < self.policy.timeout_slots.max(1) {
            return WatchdogVerdict::Armed;
        }
        self.stalled = 0;
        if self.attempt >= self.policy.max_retries {
            self.attempt = 0;
            self.backoff_until = 0;
            return WatchdogVerdict::Exhausted;
        }
        self.attempt += 1;
        let backoff_slots = self.policy.backoff_for(self.attempt);
        self.backoff_until = now.saturating_add(backoff_slots).saturating_add(1);
        WatchdogVerdict::Retry {
            attempt: self.attempt,
            backoff_slots,
        }
    }

    /// Reports progress on the device. Returns `true` when this closes an
    /// active fault episode (the caller traces a recovery).
    pub fn note_progress(&mut self) -> bool {
        let recovered = self.episode;
        self.stalled = 0;
        self.attempt = 0;
        self.backoff_until = 0;
        self.episode = false;
        recovered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_rates_match_the_paper() {
        // "…via an Ethernet controller (1 Gbps)… via a FlexRay (10 Mbps)."
        assert_eq!(IoProtocol::Ethernet.bits_per_second(), 1_000_000_000);
        assert_eq!(IoProtocol::FlexRay.bits_per_second(), 10_000_000);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let eth = IoController::new(IoProtocol::Ethernet);
        assert!(eth.transfer_ns(1500) > eth.transfer_ns(64));
        // Doubling payload beyond one frame roughly doubles time.
        let one = eth.transfer_ns(1500);
        let two = eth.transfer_ns(3000);
        assert!(two > 2 * one - one / 4 && two < 2 * one + one / 4);
    }

    #[test]
    fn slower_bus_takes_longer() {
        let bytes = 128;
        let eth = IoController::new(IoProtocol::Ethernet).transfer_ns(bytes);
        let spi = IoController::new(IoProtocol::Spi).transfer_ns(bytes);
        let flexray = IoController::new(IoProtocol::FlexRay).transfer_ns(bytes);
        let i2c = IoController::new(IoProtocol::I2c).transfer_ns(bytes);
        assert!(eth < spi && spi < flexray && flexray < i2c);
    }

    #[test]
    fn ethernet_wire_time_sanity() {
        // 1500 B + 304 bits overhead at 1 Gbps = 12.0 + 0.3 µs.
        let ns = IoController::new(IoProtocol::Ethernet).transfer_ns(1500);
        assert_eq!(ns, (8 * 1500 + 304) * 1_000_000_000 / 1_000_000_000);
    }

    #[test]
    fn fragmentation_adds_overhead() {
        let fr = IoController::new(IoProtocol::FlexRay);
        // 300 B needs 2 FlexRay frames (254 B max payload).
        let one_frame = fr.transfer_ns(254);
        let two_frames = fr.transfer_ns(300);
        let bits_300_direct = (8 * 300 + 80) * 1_000_000_000 / 10_000_000;
        assert!(
            two_frames > bits_300_direct,
            "second frame overhead counted"
        );
        assert!(two_frames > one_frame);
    }

    #[test]
    fn service_includes_translation() {
        let c = IoController::new(IoProtocol::Spi);
        assert_eq!(c.service_ns(100), 480 + c.transfer_ns(100));
    }

    #[test]
    fn service_slots_rounds_up_and_is_positive() {
        let c = IoController::new(IoProtocol::Ethernet);
        // Tiny transfer still costs one slot.
        assert_eq!(c.service_slots(1, 50_000), 1);
        // 1500 B ≈ 12.8 µs incl. translators → 1 slot of 50 µs.
        assert_eq!(c.service_slots(1500, 50_000), 1);
        // On I²C the same payload spans many 50 µs slots.
        let i2c = IoController::new(IoProtocol::I2c);
        assert!(i2c.service_slots(1500, 50_000) > 100);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_slot_length_panics() {
        let _ = IoController::new(IoProtocol::Spi).service_slots(1, 0);
    }

    #[test]
    fn default_translator_is_real_time() {
        assert_eq!(Translator::default(), Translator::real_time());
        assert_eq!(Translator::real_time().wcet_ns, 240);
    }
}
