//! Planned power-of-two FFTs for multi-resolution lithography simulation.
//!
//! This crate is the numerical bedrock of the multi-level ILT stack. It
//! replaces the `torch.fft` dependency of the original DAC 2023
//! implementation with:
//!
//! * [`Complex64`] — a self-contained complex value type,
//! * [`FftPlan`] — 1-D fused radix-4 plans with one runner over
//!   `len x width` panels (a row is the panel of width 1); [`Fft2d`] takes
//!   them from one private process-wide cache, so each size and direction
//!   is planned once,
//! * [`Fft2d`] — reusable 2-D transforms over row-major buffers, with a
//!   cache-blocked column pass, a pruned Hermitian-packed real-input
//!   forward ([`Fft2d::forward_real_cropped_with`]), and a pruned padded
//!   inverse ([`Fft2d::inverse_padded_with`]) that skips all work on the
//!   structurally-zero part of a padded kernel spectrum,
//! * [`Fft2dScratch`] / [`with_thread_scratch`] — reusable workspaces, one
//!   of which every transform takes, so long-lived worker threads never
//!   allocate inside a transform,
//! * [`fork_join`] / [`hold_core`] — the process's core ledger: two
//!   independent halves run side by side only on a core no compute thread
//!   holds,
//! * spectrum utilities ([`crop_centered`], [`pad_centered`], [`fftshift`])
//!   implementing the frequency-domain size changes of Eqs. 3/7/8 of the
//!   paper ("discard the high-frequency part of `F(M)`"),
//! * [`logistic`] / [`logistic_in_place`] — the one sigmoid kernel (Eqs. 9
//!   and 11), dispatched like the butterflies and bit-identical across them,
//! * [`conj_dots`] / [`axpys`] / [`sub_axpys`] — block primitives (many
//!   conjugate dots of one vector, many complex axpys with one vector) that
//!   the SOCS eigensolver in `ilt-optics` runs every sum on, dispatched the
//!   same way and bit-identical to their scalar loops.
//!
//! # Example: band-limited downsampling (the Eq. 7 trick)
//!
//! ```
//! use ilt_fft::{Complex64, Fft2d, Fft2dScratch};
//!
//! // A 16x16 image; keep only its 8x8 low-frequency block and reconstruct
//! // at quarter area — the core move of low-resolution lithography.
//! let mut scratch = Fft2dScratch::new();
//! let img: Vec<f64> = (0..256).map(|i| (i % 16) as f64 / 16.0).collect();
//! let mut small = vec![Complex64::ZERO; 64];
//! Fft2d::new(16, 16).forward_real_cropped_with(&img, 8, &mut small, &mut scratch);
//! for z in &mut small { *z = z.scale(1.0 / 4.0); } // 1/s^2, s = 2
//! Fft2d::new(8, 8).inverse_with(&mut small, &mut scratch);
//! assert_eq!(small.len(), 64);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod complex;
mod cores;
mod fft2d;
mod plan;
mod scratch;
// The one module allowed to use `unsafe`: `std::arch` SIMD butterflies, the
// AVX2 logistic and block primitives, runtime-dispatched and pinned
// bit-for-bit against the scalar path.
#[allow(unsafe_code)]
mod simd;
mod spectrum;

pub use complex::Complex64;
pub use cores::{cores_borrowed, fork_join, hold_core};
pub use fft2d::Fft2d;
pub use plan::{Direction, FftPlan};
pub use scratch::{
    grown, with_installed_scratch, with_thread_scratch, Fft2dScratch, ScratchPool, WorkBuffers,
};
pub use simd::{active_kernel, axpys, conj_dots, logistic, logistic_in_place, sub_axpys};
pub use spectrum::{
    crop_centered, fftshift, freq_index, pad_centered, pad_centered_into, signed_freq,
};
