//! Client-side resilience counters, registered in the process-global
//! `sgs-obs` registry (naming scheme `sgs_client_*`, `DESIGN.md` §11).
//! They count failure handling and push delivery, not plain traffic:
//! the chaos suite asserts every injected fault is not just survived
//! but *counted*.

use std::sync::{Arc, OnceLock};

use sgs_obs::{registry, Counter};

pub(crate) struct ClientMetrics {
    /// Request deadlines that expired ([`crate::ClientError::Timeout`]).
    pub timeouts: Arc<Counter>,
    /// Connections lost mid-exchange
    /// ([`crate::ClientError::ConnectionLost`]).
    pub connections_lost: Arc<Counter>,
    /// `GoAway` frames received (server draining).
    pub goaways: Arc<Counter>,
    /// `Subscribe` requests acknowledged by the server.
    pub subscribes: Arc<Counter>,
    /// Windows received as unsolicited pushed `Windows` frames.
    pub pushed_windows: Arc<Counter>,
}

pub(crate) fn metrics() -> &'static ClientMetrics {
    static METRICS: OnceLock<ClientMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = registry();
        ClientMetrics {
            timeouts: r.counter("sgs_client_timeouts_total"),
            connections_lost: r.counter("sgs_client_connections_lost_total"),
            goaways: r.counter("sgs_client_goaways_total"),
            subscribes: r.counter("sgs_client_subscribes_total"),
            pushed_windows: r.counter("sgs_client_pushed_windows_total"),
        }
    })
}
