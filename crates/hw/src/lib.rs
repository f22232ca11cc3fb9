//! The VIBNN accelerator: cycle-level simulator plus FPGA resource, power,
//! and timing models.
//!
//! The paper implements the accelerator on an Altera Cyclone V FPGA
//! (5CGTFD9E5F35C7). This crate substitutes that hardware with:
//!
//! - [`AcceleratorConfig`] — the architecture parameters of Section 5.4
//!   (T PE-sets × S PEs × N inputs, bit length B) with the bandwidth
//!   constraint checks of equations 14/15.
//! - [`QuantizedBnn`] — the *functional* fixed-point datapath: exactly the
//!   arithmetic the PEs and weight generator perform (quantized µ/σ,
//!   `w = µ + σ·ε`, wide-accumulator MACs, bias, ReLU), vectorized for
//!   fast accuracy evaluation (Tables 6/7, Figure 18).
//! - [`CycleAccelerator`] — a component-level, cycle-ticked model of the
//!   PE pipeline, memories, and weight generator that produces outputs
//!   bit-identical to [`QuantizedBnn`] while counting cycles and memory
//!   traffic.
//! - [`Schedule`] — the closed-form cycle model the simulator is verified
//!   against.
//! - [`ResourceModel`] / [`power`] / [`timing`] — analytic
//!   ALM/register/BRAM/DSP, power, and Fmax models calibrated against the
//!   paper's published synthesis results (Tables 2/4/5); calibration
//!   constants carry `PAPER_*` names and tests assert the model reproduces
//!   the paper's numbers within tolerance.
//! - [`baselines`] — CPU/GPU throughput and energy anchors for Table 5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod config;
mod controller;
pub mod power;
mod quantized;
mod resources;
mod sim;
pub mod timing;

pub use config::{AcceleratorConfig, ConfigError};
pub use controller::{LayerCycles, Schedule};
pub use quantized::{QuantizationSpec, QuantizedBnn};
pub use resources::{GrngResources, DEVICE_RAM_BLOCKS, ResourceModel, SystemResources, PAPER_RLF_GRNG_64, PAPER_RLF_SYSTEM, PAPER_WALLACE_GRNG_64, PAPER_WALLACE_SYSTEM};
pub use sim::{softmax_f64, CycleAccelerator, RequestCost, SimStats};
