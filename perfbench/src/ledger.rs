//! The message ledger: every sent message counted by kind, from the
//! engines' per-send measure hook.
//!
//! On the bare engines a sent message is an [`SfsMsg`]: a heartbeat, an
//! obituary (the §5 `"j failed"` message, which is both suspicion and
//! acknowledgement), or an application message. Under the transport
//! every sent message is a frame: a data frame carrying one of those
//! (first transmission or retransmission), a cumulative ack, or a probe
//! ping. Retransmissions are told apart by the transport's
//! execution-neutral `retx` trace notes.

use sfs::{SfsMsg, TransportMsg};
use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters fed by a measure hook (shared with the engine).
#[derive(Debug, Default)]
pub struct Ledger {
    heartbeat: AtomicU64,
    obituary: AtomicU64,
    app: AtomicU64,
    control: AtomicU64,
    data: AtomicU64,
    ack: AtomicU64,
    probe: AtomicU64,
}

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

impl Ledger {
    /// Counts one protocol message (bare engines, or a data frame's
    /// payload).
    pub fn sfs<M>(&self, m: &SfsMsg<M>) {
        bump(match m {
            SfsMsg::Heartbeat => &self.heartbeat,
            SfsMsg::Susp { .. } => &self.obituary,
            SfsMsg::App { .. } => &self.app,
            SfsMsg::Control(_) => &self.control,
        });
    }

    /// Counts one transport frame.
    pub fn frame<M>(&self, f: &TransportMsg<SfsMsg<M>>) {
        match f {
            TransportMsg::Data { payload, .. } => {
                bump(&self.data);
                self.sfs(payload);
            }
            TransportMsg::Ack { .. } => bump(&self.ack),
            TransportMsg::Ping => bump(&self.probe),
            TransportMsg::Ctl(_) => bump(&self.control),
        }
    }

    /// The counts so far; `retx` is the number of data frames the
    /// transport annotated as retransmissions.
    pub fn counts(&self, retx: u64) -> LedgerCounts {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let data = get(&self.data);
        LedgerCounts {
            heartbeat: get(&self.heartbeat),
            obituary: get(&self.obituary),
            app: get(&self.app),
            control: get(&self.control),
            data: data.saturating_sub(retx),
            retx,
            ack: get(&self.ack),
            probe: get(&self.probe),
        }
    }
}

/// Sent messages by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerCounts {
    /// Protocol heartbeats.
    pub heartbeat: u64,
    /// Protocol obituaries.
    pub obituary: u64,
    /// Application messages.
    pub app: u64,
    /// Control stimuli put on a channel (the engines inject them, so
    /// this stays zero; counted so the sum check would see one).
    pub control: u64,
    /// Data frames, first transmissions.
    pub data: u64,
    /// Data frames, retransmissions.
    pub retx: u64,
    /// Ack frames.
    pub ack: u64,
    /// Probe pings.
    pub probe: u64,
}

impl LedgerCounts {
    /// Checks the ledger against the engine's own send count. Bare runs:
    /// the protocol kinds sum to `sent`. Framed runs: the frame kinds sum
    /// to `sent`, and the protocol kinds sum to the data frames
    /// (retransmissions included).
    pub fn check(&self, sent: u64, framed: bool) -> Result<(), String> {
        let protocol = self.heartbeat + self.obituary + self.app;
        let frames = self.data + self.retx + self.ack + self.probe;
        let (kinds, also) = if framed {
            (frames + self.control, Some(self.data + self.retx))
        } else {
            (protocol + self.control, None)
        };
        if kinds != sent {
            return Err(format!(
                "ledger kinds sum to {kinds}, engine sent {sent}: {self:?}"
            ));
        }
        if !framed && frames != 0 {
            return Err(format!("frames counted on a bare run: {self:?}"));
        }
        match also {
            Some(data) if data != protocol => Err(format!(
                "data frames {data} carry {protocol} protocol messages: {self:?}"
            )),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_asys::ProcessId;

    #[test]
    fn bare_kinds_must_sum_to_sent() {
        let l = Ledger::default();
        l.sfs(&SfsMsg::<()>::Heartbeat);
        l.sfs(&SfsMsg::<()>::Heartbeat);
        l.sfs(&SfsMsg::<()>::Susp {
            suspect: ProcessId::new(1),
        });
        l.sfs(&SfsMsg::App {
            payload: (),
            knows: vec![],
        });
        let c = l.counts(0);
        assert_eq!((c.heartbeat, c.obituary, c.app), (2, 1, 1));
        assert_eq!(c.check(4, false), Ok(()));
        assert!(c.check(5, false).is_err(), "one send unaccounted");
        assert!(c.check(3, false).is_err(), "one send too many");
    }

    #[test]
    fn framed_kinds_split_first_sends_from_retransmissions() {
        let l = Ledger::default();
        let data = |m| TransportMsg::Data {
            seq: 1,
            logical: 0,
            payload: m,
        };
        l.frame(&data(SfsMsg::<()>::Susp {
            suspect: ProcessId::new(0),
        }));
        l.frame(&data(SfsMsg::<()>::Susp {
            suspect: ProcessId::new(0),
        }));
        l.frame(&data(SfsMsg::App {
            payload: (),
            knows: vec![],
        }));
        l.frame(&TransportMsg::<SfsMsg<()>>::Ack { upto: 1 });
        l.frame(&TransportMsg::<SfsMsg<()>>::Ping);
        // One of the three data frames was a retransmission.
        let c = l.counts(1);
        assert_eq!((c.data, c.retx, c.ack, c.probe), (2, 1, 1, 1));
        assert_eq!((c.obituary, c.app), (2, 1));
        assert_eq!(c.check(5, true), Ok(()));
        assert!(c.check(6, true).is_err());
        // A bare check of framed counts fails: protocol kinds sum to 3.
        assert!(c.check(5, false).is_err());
        let mut bad = c;
        bad.app += 1;
        bad.ack -= 1;
        assert!(
            bad.check(5, true).is_err(),
            "payloads must match data frames"
        );
    }
}
