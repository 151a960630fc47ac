//! Preloaded into the benchmark and the `eqpd` daemon it starts (see
//! `../run.sh`): `fsync` and `fdatasync` return success without syncing.
//!
//! The benchmark may write only inside its checkout, and a checkout on a
//! shared virtual disk gives fsync latencies that drift by an order of
//! magnitude with other tenants' load. Eliding the sync gives the
//! journal tmpfs behaviour, as the service soak measures it: every
//! file create, write, rename and unlink still happens, and only the
//! wait for the device is gone.
//!
//! The exported symbols interpose on the C library's: each has the exact
//! C signature `int f(int fd)`, and neither touches `fd`.

use std::ffi::c_int;

/// No-op `fsync(2)`.
#[no_mangle]
pub extern "C" fn fsync(_fd: c_int) -> c_int {
    0
}

/// No-op `fdatasync(2)`.
#[no_mangle]
pub extern "C" fn fdatasync(_fd: c_int) -> c_int {
    0
}
