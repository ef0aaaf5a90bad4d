//! # tbs-server — network serving tier
//!
//! Exposes a temporally-biased sampling engine (EDBT 2018, Hentschel,
//! Haas & Tian) over a framed-TCP wire protocol: ingest, epoch
//! subscriptions (long poll), checkpoint pull/push, and model serving.
//!
//! The stack, bottom to top:
//!
//! * [`proto`] — length-prefixed frames whose payloads reuse the
//!   engine's checkpoint codec (`TBSC` magic, typed decode errors);
//!   [`proto::Request`] / [`proto::Reply`] message enums; an
//!   incremental [`proto::FrameDecoder`].
//! * [`service`] — [`service::WireService`], the engine surface the
//!   server dispatches into; [`service::SamplerService`] (full engine
//!   from a `SamplerConfig`) and [`service::CellService`] (read-only
//!   `EpochCell` replica); [`service::LineFit`], the default served
//!   model.
//! * [`server`] — [`server::serve`]: blocking `std::net` sockets, one
//!   accept thread plus one thread per connection, pipelined requests,
//!   fault injection at exact reply-frame boundaries via the engine's
//!   `FaultPlan`.
//! * [`client`] — [`client::BlockingClient`], a synchronous typed
//!   client with socket timeouts.
//!
//! ```no_run
//! use temporal_sampling::api::{RetrainPolicy, SamplerConfig};
//! use tbs_server::client::BlockingClient;
//! use tbs_server::service::{NoModel, SamplerService};
//!
//! let svc: SamplerService<u64, NoModel> = SamplerService::new(
//!     SamplerConfig::rtbs(0.05, 1000).seed(7),
//!     NoModel,
//!     RetrainPolicy::EveryBatch,
//! )
//! .unwrap();
//! let server = tbs_server::server::serve("127.0.0.1:0".parse().unwrap(), svc, None).unwrap();
//!
//! let mut client: BlockingClient<u64> = BlockingClient::connect(server.addr()).unwrap();
//! client.ingest((0..10_000).collect()).unwrap();
//! let (epoch, _batches, items) = client.get_sample().unwrap();
//! assert!(epoch >= 1 && !items.is_empty());
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;
pub mod service;

pub use client::{BlockingClient, ClientError};
pub use proto::{EpochOutcome, ErrorCode, FrameDecoder, ProtoError, Reply, Request};
pub use server::{serve, serve_on, ServerHandle};
pub use service::{
    CellService, LineFit, NoModel, Predictor, SamplerService, ServiceError, WireService,
};
