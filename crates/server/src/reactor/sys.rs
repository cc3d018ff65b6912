//! Minimal, dependency-free Linux `epoll`/`eventfd` bindings.
//!
//! The container this repository builds in has no crates.io access, so — in
//! the same spirit as the workspace's `shims/` — the readiness primitives
//! are declared directly against the C library with `extern "C"` instead of
//! pulling in `libc`/`mio`. Only what the reactor actually needs is bound:
//! `epoll_create1`/`epoll_ctl`/`epoll_wait`, `eventfd`, `close`,
//! `read`/`write` (for the eventfd counter) and `fcntl` (to flip the eventfd
//! nonblocking). Sockets are read and written through `std`: the reply
//! flush is `Write::write_vectored` on a `&TcpStream`, which is `writev`.
//!
//! This is the **only** module in the crate allowed to contain `unsafe`
//! (`#[allow(unsafe_code)]` at the module item; the crate denies it
//! everywhere else), and every unsafe block is a single foreign call with
//! its arguments fully owned by the caller. Everything above this module —
//! [`Epoll`](super::poll::Epoll), [`EventFd`](super::poll::EventFd), the
//! event loop — is safe Rust holding RAII-closed file descriptors.

use std::ffi::{c_int, c_uint, c_void};

/// One readiness record, as `epoll_wait` fills them in.
///
/// Mirrors `struct epoll_event`, whose layout is architecture-dependent: the
/// kernel packs it to 4-byte alignment **on x86-64 only** (`EPOLL_PACKED` is
/// defined under `__x86_64__`; 12 bytes, `data` at offset 4), while every
/// other architecture uses natural alignment (16 bytes, `data` at offset 8).
/// The `cfg_attr` mirrors exactly that. Fields are only ever read by copy
/// (never by reference), which is the safe access pattern for packed
/// structs.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Copy, Clone, Default)]
pub(crate) struct EpollEvent {
    /// Ready-event bitmask (`EPOLLIN` | `EPOLLOUT` | …).
    pub(crate) events: u32,
    /// The caller-chosen token registered with the fd.
    pub(crate) data: u64,
}

pub(crate) const EPOLL_CTL_ADD: c_int = 1;
pub(crate) const EPOLL_CTL_DEL: c_int = 2;
pub(crate) const EPOLL_CTL_MOD: c_int = 3;

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;

/// `EPOLL_CLOEXEC` == `O_CLOEXEC`.
const EPOLL_CLOEXEC: c_int = 0o2000000;
/// `EFD_CLOEXEC` == `O_CLOEXEC`.
const EFD_CLOEXEC: c_int = 0o2000000;

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
const O_NONBLOCK: c_int = 0o4000;

#[allow(unsafe_code)]
extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
}

/// `epoll_create1(EPOLL_CLOEXEC)`; the returned fd, or -1 with `errno` set.
#[allow(unsafe_code)]
pub(crate) fn sys_epoll_create() -> c_int {
    unsafe { epoll_create1(EPOLL_CLOEXEC) }
}

/// `epoll_ctl` with an interest mask and token (ignored for `DEL`).
#[allow(unsafe_code)]
pub(crate) fn sys_epoll_ctl(epfd: c_int, op: c_int, fd: c_int, events: u32, token: u64) -> c_int {
    let mut event = EpollEvent {
        events,
        data: token,
    };
    unsafe { epoll_ctl(epfd, op, fd, &mut event) }
}

/// `epoll_wait` into `buf`; returns the number of ready records, or -1 with
/// `errno` set (notably `EINTR`).
#[allow(unsafe_code)]
pub(crate) fn sys_epoll_wait(epfd: c_int, buf: &mut [EpollEvent], timeout_ms: c_int) -> c_int {
    unsafe {
        epoll_wait(
            epfd,
            buf.as_mut_ptr(),
            buf.len().min(c_int::MAX as usize) as c_int,
            timeout_ms,
        )
    }
}

/// `eventfd(0, EFD_CLOEXEC)`; nonblocking mode is applied separately with
/// [`sys_set_nonblocking`].
#[allow(unsafe_code)]
pub(crate) fn sys_eventfd() -> c_int {
    unsafe { eventfd(0, EFD_CLOEXEC) }
}

/// Flips `O_NONBLOCK` on via `fcntl(F_GETFL)`/`fcntl(F_SETFL)`.
#[allow(unsafe_code)]
pub(crate) fn sys_set_nonblocking(fd: c_int) -> c_int {
    let flags = unsafe { fcntl(fd, F_GETFL, 0) };
    if flags < 0 {
        return flags;
    }
    unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) }
}

/// `close(fd)`.
#[allow(unsafe_code)]
pub(crate) fn sys_close(fd: c_int) -> c_int {
    unsafe { close(fd) }
}

/// Reads the eventfd's 8-byte counter (resetting it); the byte count read,
/// or -1 with `errno` set (`EAGAIN` when the counter is zero).
#[allow(unsafe_code)]
pub(crate) fn sys_eventfd_read(fd: c_int) -> isize {
    let mut counter: u64 = 0;
    unsafe { read(fd, (&mut counter as *mut u64).cast::<c_void>(), 8) }
}

/// Adds 1 to the eventfd's counter; the byte count written, or -1 with
/// `errno` set (`EAGAIN` when the counter is saturated — a wakeup is already
/// pending, so that is not an error for our purposes).
#[allow(unsafe_code)]
pub(crate) fn sys_eventfd_signal(fd: c_int) -> isize {
    let one: u64 = 1;
    unsafe { write(fd, (&one as *const u64).cast::<c_void>(), 8) }
}
