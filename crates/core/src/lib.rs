//! The integrated portal of Figures 1 and 4.
//!
//! "We believe that the integrated architecture begins to resemble a
//! distributed operating system: user interactions are through a finite
//! list of basic commands that operate in a 'shell' or execution
//! environment. These commands encapsulate 'system' level calls to
//! actually interact with computing resources." (§6)
//!
//! * [`deployment`] — [`PortalDeployment`]: stands up the whole
//!   multi-server topology (registry server, authentication server, grid
//!   SSP, two script-generation SSPs) over in-memory or real TCP
//!   transports, populates the registries, and wires the security guards.
//! * [`ui`] — [`UiServer`]: the Figure 1 client side. Logs users in
//!   through the Authentication Service, then *discovers* services in the
//!   UDDI, *fetches* their WSDL, and *binds* dynamic client proxies with
//!   signed SAML assertions attached to every call.
//! * [`shell`] — [`PortalShell`]: the Figure 4 command environment —
//!   `ls`, `cat`, `put`, `scriptgen`, `jobsub`, … composable with pipes
//!   (`scriptgen … | jobrun tg-login PBS`), each command encapsulating
//!   core-service calls.

pub mod deployment;
pub mod shell;
pub mod transfer;
pub mod ui;

pub use deployment::{ChaosPolicy, DeploymentSpec, PortalDeployment, SecurityMode, TransportMode};
pub use portalws_wire::ServerArm;
pub use shell::PortalShell;
pub use transfer::{TransferClient, TransferConfig, TransferReport};
pub use ui::UiServer;

use std::fmt;

/// Errors raised by the integrated portal layer.
#[derive(Debug)]
pub enum PortalError {
    /// Discovery failed (service not in the registry).
    Discovery(String),
    /// Bind failed (WSDL fetch/parse, unreachable endpoint).
    Bind(String),
    /// Authentication failure.
    Auth(String),
    /// A downstream service call failed.
    Service(String),
    /// Shell usage error.
    Shell(String),
}

impl fmt::Display for PortalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortalError::Discovery(m) => write!(f, "discovery: {m}"),
            PortalError::Bind(m) => write!(f, "bind: {m}"),
            PortalError::Auth(m) => write!(f, "auth: {m}"),
            PortalError::Service(m) => write!(f, "service: {m}"),
            PortalError::Shell(m) => write!(f, "shell: {m}"),
        }
    }
}

impl std::error::Error for PortalError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, PortalError>;
