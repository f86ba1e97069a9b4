//! The PAN transport the session and failover clients run on.

use std::cell::Cell;
use std::rc::Rc;

use sciera::core::SimTransport;
use sciera::daemon::daemon::{Daemon, PathProvider};
use sciera::prelude::*;
use sciera::proto::packet::{L4Protocol, ScionPacket};
use sciera::proto::scmp::ScmpMessage;

use crate::util::CallTimer;

/// A daemon's path provider: the network's filtered lookup
/// (`SciEraNetwork::paths`), timed as `core.lookup`.
pub struct NetProvider<'a> {
    pub net: &'a SciEraNetwork,
    pub timer: &'a CallTimer,
}

impl PathProvider for NetProvider<'_> {
    fn fetch_paths(&self, src: IsdAsn, dst: IsdAsn, _now: u64) -> Vec<FullPath> {
        self.timer.time("core.lookup", || self.net.paths(src, dst))
    }
}

pub type NetDaemon<'a> = Daemon<NetProvider<'a>>;

/// Sends and receives through the host's `SimTransport`. Path lookups go
/// to the host's daemon when it has one (daemon-dependent mode), else to
/// the transport's own lookup. Every SCMP the host receives is also
/// handed to the daemon, and `ExternalInterfaceDown` notifications are
/// counted in `scmps`. Each call into a layer is timed on `timer`.
pub struct BenchTransport<'a> {
    inner: SimTransport,
    daemon: Option<&'a NetDaemon<'a>>,
    timer: &'a CallTimer,
    pub scmps: Rc<Cell<u64>>,
}

impl<'a> BenchTransport<'a> {
    pub fn new(
        host: &HostHandle,
        daemon: Option<&'a NetDaemon<'a>>,
        timer: &'a CallTimer,
    ) -> BenchTransport<'a> {
        BenchTransport {
            inner: host.transport(),
            daemon,
            timer,
            scmps: Rc::default(),
        }
    }
}

impl PanTransport for BenchTransport<'_> {
    fn send_packet(&mut self, packet: ScionPacket) {
        self.timer
            .time("core.walk", || self.inner.send_packet(packet))
    }

    fn recv_packet(&mut self) -> Option<ScionPacket> {
        let packet = self.timer.time("core.recv", || self.inner.recv_packet())?;
        if packet.next_hdr == L4Protocol::Scmp {
            if let Ok(msg) = ScmpMessage::decode(&packet.payload) {
                if let Some(daemon) = self.daemon {
                    self.timer
                        .time("daemon.handle_scmp", || daemon.handle_scmp(&msg));
                }
                if matches!(msg, ScmpMessage::ExternalInterfaceDown { .. }) {
                    self.scmps.set(self.scmps.get() + 1);
                }
            }
        }
        Some(packet)
    }

    fn now_unix(&self) -> u64 {
        self.inner.now_unix()
    }

    fn lookup_paths(&mut self, dst: IsdAsn) -> Vec<FullPath> {
        match self.daemon {
            Some(daemon) => {
                let now = self.inner.now_unix();
                self.timer.time("daemon.paths", || daemon.paths(dst, now))
            }
            None => self
                .timer
                .time("core.lookup", || self.inner.lookup_paths(dst)),
        }
    }
}
