//! A dependency-free readiness reactor (unix).
//!
//! One OS thread per connection is fine for tens of sockets and fatal
//! for the serving layer's mostly-idle keep-alive fleets. This module
//! supplies the primitive that avoids it: a single-threaded event loop
//! core that watches many file descriptors at once and reports
//! *readiness*, so one thread can multiplex thousands of connection state
//! machines.
//!
//! The container has no registry access, so — in the spirit of the raw
//! `mmap` FFI in `exaclim-store` — the reactor carries its own minimal
//! FFI surface instead of depending on `mio`:
//!
//! * on Linux, `epoll_create1`/`epoll_ctl`/`epoll_wait` (O(ready)
//!   scaling),
//! * on every other unix, `poll(2)` over the registration table
//!   (O(registered) per call),
//!
//! selected automatically by [`Reactor::new`] or pinned explicitly with
//! [`Reactor::with_backend`] (CI exercises the `poll` backend on Linux
//! this way). Both backends share one API:
//!
//! * **token-based registration** — [`Reactor::register`] associates a
//!   raw fd with a caller-chosen [`Token`]; [`Reactor::modify`] re-arms
//!   interest and [`Reactor::deregister`] removes it. The reactor never
//!   owns registered fds; callers close them after deregistering.
//! * **a deadline wheel** — [`Reactor::set_deadline`] attaches at most
//!   one [`std::time::Instant`] per token; [`Reactor::poll`] wakes no
//!   later than the nearest deadline and reports expired tokens **in
//!   deadline order**. This is how idle connections are reaped without a timer
//!   thread.
//! * **a wakeup fd** — [`Reactor::waker`] hands out a cheap, clonable
//!   [`Waker`] other threads use to nudge a parked [`Reactor::poll`]
//!   (completion queues, shutdown). The wake pipe is internal: it never
//!   appears among returned events.
//!
//! The serving layer's `NetServer` runs on this reactor and has no other
//! server path, so it is unix-only because this module is. Off unix only
//! the portable types ([`Token`], [`Interest`], [`Event`])
//! exist.

/// Caller-chosen identity of one registered file descriptor; returned in
/// every [`Event`] and expired-deadline report. `u64::MAX` is reserved
/// for the reactor's internal wake pipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub u64);

/// Readiness interest of one registration: which directions the caller
/// wants to hear about. Hangup and error conditions are always reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    /// Wake when the fd becomes readable.
    pub readable: bool,
    /// Wake when the fd becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READABLE: Self = Self {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITABLE: Self = Self {
        readable: false,
        writable: true,
    };
    /// Neither direction — the fd stays registered (hangup/error still
    /// reported) but readiness is muted; used while a connection's
    /// request is executing (back-pressure).
    pub const NONE: Self = Self {
        readable: false,
        writable: false,
    };
}

/// One readiness report from [`Reactor::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The registration this event belongs to.
    pub token: Token,
    /// The fd is readable (or at EOF — a read will not block).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The peer hung up.
    pub hangup: bool,
    /// The fd is in an error state.
    pub error: bool,
}

#[cfg(unix)]
pub use unix::{Backend, Reactor, Waker};

#[cfg(unix)]
mod unix {
    use super::{Event, Interest, Token};
    use std::collections::{BTreeSet, HashMap};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Token value reserved for the internal wake pipe.
    const WAKE: u64 = u64::MAX;

    // Minimal FFI surface of the C library's readiness and pipe calls.
    // `std` links libc on every unix target, so no external crate is
    // needed. `fcntl` is genuinely variadic in C; declaring it so keeps
    // the ABI honest.
    extern "C" {
        fn pipe(fds: *mut i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut core::ffi::c_void, count: usize) -> isize;
        fn write(fd: i32, buf: *const core::ffi::c_void, count: usize) -> isize;
        fn fcntl(fd: i32, cmd: i32, ...) -> i32;
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
    }

    #[cfg(target_os = "linux")]
    type NfdsT = core::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = core::ffi::c_uint;

    const F_SETFD: i32 = 2;
    const F_GETFL: i32 = 3;
    const F_SETFL: i32 = 4;
    const FD_CLOEXEC: i32 = 1;
    #[cfg(target_os = "linux")]
    const O_NONBLOCK: i32 = 0o4000;
    #[cfg(not(target_os = "linux"))]
    const O_NONBLOCK: i32 = 0x0004;

    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    const POLLERR: i16 = 0x8;
    const POLLHUP: i16 = 0x10;
    const POLLNVAL: i16 = 0x20;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    fn last_err() -> io::Error {
        io::Error::last_os_error()
    }

    /// Set `O_NONBLOCK` and `FD_CLOEXEC` on `fd`.
    fn set_nonblocking_cloexec(fd: RawFd) -> io::Result<()> {
        // SAFETY: fcntl on an fd we own; F_GETFL takes no third argument.
        let flags = unsafe { fcntl(fd, F_GETFL) };
        if flags < 0 {
            return Err(last_err());
        }
        // SAFETY: setting status/descriptor flags on an fd we own.
        if unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
            return Err(last_err());
        }
        if unsafe { fcntl(fd, F_SETFD, FD_CLOEXEC) } < 0 {
            return Err(last_err());
        }
        Ok(())
    }

    /// Owned write end of the wake pipe, closed when the last [`Waker`]
    /// clone drops.
    struct WakeFd(RawFd);

    impl Drop for WakeFd {
        fn drop(&mut self) {
            // SAFETY: closing the fd this value uniquely owns.
            unsafe { close(self.0) };
        }
    }

    /// A cheap, clonable, `Send + Sync` handle that nudges a parked
    /// [`Reactor::poll`] from any thread — the cross-thread half of the
    /// reactor's wakeup fd. Wakes coalesce: many [`Waker::wake`] calls
    /// between two polls cost one wakeup.
    #[derive(Clone)]
    pub struct Waker {
        fd: Arc<WakeFd>,
    }

    impl std::fmt::Debug for Waker {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Waker").field("fd", &self.fd.0).finish()
        }
    }

    impl Waker {
        /// Wake the reactor if it is (or is about to be) parked in
        /// [`Reactor::poll`]. Never blocks: a full wake pipe already
        /// guarantees a pending wakeup, so `EAGAIN` is success.
        pub fn wake(&self) {
            let byte = 1u8;
            // SAFETY: writing one byte from a live stack buffer to a
            // nonblocking pipe fd kept open by the Arc.
            unsafe { write(self.fd.0, (&byte as *const u8).cast(), 1) };
        }
    }

    /// One registration: the fd plus its current interest.
    struct Reg {
        fd: RawFd,
        interest: Interest,
    }

    /// Which readiness syscall backs a [`Reactor`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Backend {
        /// `epoll` (Linux only): O(ready) waits.
        Epoll,
        /// `poll(2)` (any unix): the pollfd array is rebuilt from the
        /// registration table each call — O(registered).
        Poll,
    }

    enum BackendImpl {
        #[cfg(target_os = "linux")]
        Epoll {
            epfd: RawFd,
            buf: Vec<epoll::EpollEvent>,
        },
        Poll,
    }

    #[cfg(target_os = "linux")]
    mod epoll {
        extern "C" {
            pub fn epoll_create1(flags: i32) -> i32;
            pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
            pub fn epoll_wait(
                epfd: i32,
                events: *mut EpollEvent,
                maxevents: i32,
                timeout: i32,
            ) -> i32;
        }

        pub const EPOLL_CLOEXEC: i32 = 0o2000000;
        pub const EPOLL_CTL_ADD: i32 = 1;
        pub const EPOLL_CTL_DEL: i32 = 2;
        pub const EPOLL_CTL_MOD: i32 = 3;
        pub const EPOLLIN: u32 = 0x1;
        pub const EPOLLOUT: u32 = 0x4;
        pub const EPOLLERR: u32 = 0x8;
        pub const EPOLLHUP: u32 = 0x10;

        /// The kernel's `struct epoll_event`; packed on x86-64, where the
        /// ABI ships the u64 payload unaligned after the u32 mask.
        #[repr(C)]
        #[cfg_attr(target_arch = "x86_64", repr(packed))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }
    }

    /// The reactor: one readiness backend, a registration table, a
    /// deadline wheel, and a wake pipe. Single-owner by design — the
    /// event-loop thread holds it `&mut`; other threads reach it only
    /// through [`Waker`].
    pub struct Reactor {
        backend: BackendImpl,
        regs: HashMap<u64, Reg>,
        /// `(deadline, token)` pairs; `BTreeSet` iteration order *is*
        /// firing order.
        deadlines: BTreeSet<(Instant, u64)>,
        deadline_of: HashMap<u64, Instant>,
        wake_rx: RawFd,
        waker: Waker,
    }

    impl std::fmt::Debug for Reactor {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Reactor")
                .field("backend", &self.backend_name())
                .field("registered", &self.regs.len())
                .field("deadlines", &self.deadlines.len())
                .finish()
        }
    }

    impl Reactor {
        /// Open a reactor on the platform's best backend: `epoll` on
        /// Linux, `poll(2)` elsewhere.
        pub fn new() -> io::Result<Self> {
            #[cfg(target_os = "linux")]
            return Self::with_backend(Backend::Epoll);
            #[cfg(not(target_os = "linux"))]
            return Self::with_backend(Backend::Poll);
        }

        /// Open a reactor on an explicit backend. [`Backend::Epoll`] is
        /// `Unsupported` off Linux; [`Backend::Poll`] works on any unix
        /// (and is how CI covers the portable code path on Linux).
        pub fn with_backend(backend: Backend) -> io::Result<Self> {
            let backend = match backend {
                #[cfg(target_os = "linux")]
                Backend::Epoll => {
                    // SAFETY: plain syscall; returns a fresh fd or -1.
                    let epfd = unsafe { epoll::epoll_create1(epoll::EPOLL_CLOEXEC) };
                    if epfd < 0 {
                        return Err(last_err());
                    }
                    BackendImpl::Epoll {
                        epfd,
                        buf: vec![epoll::EpollEvent { events: 0, data: 0 }; 256],
                    }
                }
                #[cfg(not(target_os = "linux"))]
                Backend::Epoll => {
                    return Err(io::Error::new(
                        io::ErrorKind::Unsupported,
                        "epoll backend requires Linux",
                    ))
                }
                Backend::Poll => BackendImpl::Poll,
            };
            let mut fds = [-1i32; 2];
            // SAFETY: pipe(2) fills the two-element array we pass.
            if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
                let e = last_err();
                if let BackendImpl::Epoll { epfd, .. } = backend {
                    // SAFETY: closing the epoll fd created above.
                    unsafe { close(epfd) };
                }
                return Err(e);
            }
            let (rx, tx) = (fds[0], fds[1]);
            set_nonblocking_cloexec(rx)?;
            set_nonblocking_cloexec(tx)?;
            let reactor = Self {
                backend,
                regs: HashMap::new(),
                deadlines: BTreeSet::new(),
                deadline_of: HashMap::new(),
                wake_rx: rx,
                waker: Waker {
                    fd: Arc::new(WakeFd(tx)),
                },
            };
            // The wake pipe's read end lives in the epoll set for the
            // reactor's whole life; the poll backend adds it per call.
            #[cfg(target_os = "linux")]
            if let BackendImpl::Epoll { epfd, .. } = reactor.backend {
                reactor.epoll_ctl(epfd, epoll::EPOLL_CTL_ADD, rx, epoll::EPOLLIN, WAKE)?;
            }
            Ok(reactor)
        }

        /// The active backend's name (`"epoll"` or `"poll"`), for logs
        /// and bench artifacts.
        pub fn backend_name(&self) -> &'static str {
            match self.backend {
                #[cfg(target_os = "linux")]
                BackendImpl::Epoll { .. } => "epoll",
                BackendImpl::Poll => "poll",
            }
        }

        /// A clonable cross-thread wake handle for this reactor.
        pub fn waker(&self) -> Waker {
            self.waker.clone()
        }

        /// Number of live registrations (excluding the wake pipe).
        pub fn registered(&self) -> usize {
            self.regs.len()
        }

        #[cfg(target_os = "linux")]
        fn epoll_ctl(
            &self,
            epfd: RawFd,
            op: i32,
            fd: RawFd,
            events: u32,
            token: u64,
        ) -> io::Result<()> {
            let mut ev = epoll::EpollEvent {
                events,
                data: token,
            };
            // SAFETY: epfd is our live epoll fd, fd the caller's live fd,
            // and `ev` outlives the call.
            if unsafe { epoll::epoll_ctl(epfd, op, fd, &mut ev) } < 0 {
                return Err(last_err());
            }
            Ok(())
        }

        #[cfg(target_os = "linux")]
        fn epoll_mask(interest: Interest) -> u32 {
            let mut mask = 0u32;
            if interest.readable {
                mask |= epoll::EPOLLIN;
            }
            if interest.writable {
                mask |= epoll::EPOLLOUT;
            }
            mask
        }

        /// Watch `fd` under `token`. The token must be unique among live
        /// registrations and not the reserved wake token; the fd stays
        /// owned by the caller (deregister before closing it).
        pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            if token.0 == WAKE {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "token u64::MAX is reserved for the reactor's wake pipe",
                ));
            }
            if self.regs.contains_key(&token.0) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("token {} is already registered", token.0),
                ));
            }
            #[cfg(target_os = "linux")]
            if let BackendImpl::Epoll { epfd, .. } = self.backend {
                self.epoll_ctl(
                    epfd,
                    epoll::EPOLL_CTL_ADD,
                    fd,
                    Self::epoll_mask(interest),
                    token.0,
                )?;
            }
            self.regs.insert(token.0, Reg { fd, interest });
            Ok(())
        }

        /// Replace the interest of a live registration.
        pub fn modify(&mut self, token: Token, interest: Interest) -> io::Result<()> {
            let reg = self.regs.get_mut(&token.0).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("token {} is not registered", token.0),
                )
            })?;
            reg.interest = interest;
            #[cfg(target_os = "linux")]
            {
                let fd = reg.fd;
                if let BackendImpl::Epoll { epfd, .. } = self.backend {
                    self.epoll_ctl(
                        epfd,
                        epoll::EPOLL_CTL_MOD,
                        fd,
                        Self::epoll_mask(interest),
                        token.0,
                    )?;
                }
            }
            Ok(())
        }

        /// Remove a registration and any deadline attached to it. The
        /// caller closes the fd afterwards.
        pub fn deregister(&mut self, token: Token) -> io::Result<()> {
            let reg = self.regs.remove(&token.0).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("token {} is not registered", token.0),
                )
            })?;
            self.clear_deadline(token);
            #[cfg(target_os = "linux")]
            if let BackendImpl::Epoll { epfd, .. } = self.backend {
                self.epoll_ctl(epfd, epoll::EPOLL_CTL_DEL, reg.fd, 0, token.0)?;
            }
            let _ = reg;
            Ok(())
        }

        /// Arm (or re-arm) `token`'s deadline: [`Reactor::poll`] reports
        /// it among the expired once `at` passes. One deadline per token;
        /// setting again replaces the old one.
        pub fn set_deadline(&mut self, token: Token, at: Instant) {
            if let Some(old) = self.deadline_of.insert(token.0, at) {
                self.deadlines.remove(&(old, token.0));
            }
            self.deadlines.insert((at, token.0));
        }

        /// Disarm `token`'s deadline, if any.
        pub fn clear_deadline(&mut self, token: Token) {
            if let Some(old) = self.deadline_of.remove(&token.0) {
                self.deadlines.remove(&(old, token.0));
            }
        }

        /// The poll timeout in whole milliseconds (rounded up, so a
        /// deadline is never awaited short), bounded by the nearest
        /// deadline and the caller's `max_wait`; `-1` parks forever.
        fn timeout_ms(&self, now: Instant, max_wait: Option<Duration>) -> i32 {
            let until_deadline = self
                .deadlines
                .first()
                .map(|(at, _)| at.saturating_duration_since(now));
            let wait = match (until_deadline, max_wait) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => return -1,
            };
            wait.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
        }

        /// Wait for readiness, a deadline, a wakeup, or `max_wait`.
        ///
        /// `events` and `expired` are cleared and refilled (reuse them
        /// across calls to avoid reallocation); expired tokens arrive in
        /// deadline order and their deadlines are disarmed. Returns
        /// `true` when a [`Waker::wake`] nudge was consumed — wake
        /// events are internal and never appear in `events`.
        pub fn poll(
            &mut self,
            events: &mut Vec<Event>,
            expired: &mut Vec<Token>,
            max_wait: Option<Duration>,
        ) -> io::Result<bool> {
            events.clear();
            expired.clear();
            let timeout = self.timeout_ms(Instant::now(), max_wait);
            let mut woken = false;
            match &mut self.backend {
                #[cfg(target_os = "linux")]
                BackendImpl::Epoll { epfd, buf } => {
                    // SAFETY: `buf` is a live, correctly-sized
                    // `epoll_event` array for the duration of the call.
                    let n = unsafe {
                        epoll::epoll_wait(*epfd, buf.as_mut_ptr(), buf.len() as i32, timeout)
                    };
                    if n < 0 {
                        let e = last_err();
                        if e.kind() == io::ErrorKind::Interrupted {
                            // Spurious: the caller's loop re-polls.
                            return Ok(false);
                        }
                        return Err(e);
                    }
                    for ev in buf.iter().take(n as usize) {
                        let (mask, data) = (ev.events, ev.data);
                        if data == WAKE {
                            woken = true;
                            continue;
                        }
                        events.push(Event {
                            token: Token(data),
                            readable: mask & epoll::EPOLLIN != 0,
                            writable: mask & epoll::EPOLLOUT != 0,
                            hangup: mask & epoll::EPOLLHUP != 0,
                            error: mask & epoll::EPOLLERR != 0,
                        });
                    }
                }
                BackendImpl::Poll => {
                    // Rebuild the pollfd array from the registration
                    // table: wake pipe first, then every armed fd.
                    let mut fds = Vec::with_capacity(self.regs.len() + 1);
                    let mut tokens = Vec::with_capacity(self.regs.len() + 1);
                    fds.push(PollFd {
                        fd: self.wake_rx,
                        events: POLLIN,
                        revents: 0,
                    });
                    tokens.push(WAKE);
                    for (&token, reg) in &self.regs {
                        let mut mask = 0i16;
                        if reg.interest.readable {
                            mask |= POLLIN;
                        }
                        if reg.interest.writable {
                            mask |= POLLOUT;
                        }
                        fds.push(PollFd {
                            fd: reg.fd,
                            events: mask,
                            revents: 0,
                        });
                        tokens.push(token);
                    }
                    // SAFETY: `fds` is a live pollfd array of the length
                    // we pass.
                    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout) };
                    if n < 0 {
                        let e = last_err();
                        if e.kind() == io::ErrorKind::Interrupted {
                            return Ok(false);
                        }
                        return Err(e);
                    }
                    for (fd, &token) in fds.iter().zip(&tokens) {
                        if fd.revents == 0 {
                            continue;
                        }
                        if token == WAKE {
                            woken = true;
                            continue;
                        }
                        events.push(Event {
                            token: Token(token),
                            readable: fd.revents & POLLIN != 0,
                            writable: fd.revents & POLLOUT != 0,
                            hangup: fd.revents & POLLHUP != 0,
                            error: fd.revents & (POLLERR | POLLNVAL) != 0,
                        });
                    }
                }
            }
            if woken {
                self.drain_wake_pipe();
            }
            // Harvest expired deadlines in (instant, token) order.
            let now = Instant::now();
            while let Some(&(at, token)) = self.deadlines.first() {
                if at > now {
                    break;
                }
                self.deadlines.pop_first();
                self.deadline_of.remove(&token);
                expired.push(Token(token));
            }
            Ok(woken)
        }

        /// Consume every pending wake byte so coalesced nudges cost one
        /// wakeup and the (level-triggered) wake pipe goes quiet.
        fn drain_wake_pipe(&self) {
            let mut buf = [0u8; 64];
            loop {
                // SAFETY: reading into a live stack buffer from our own
                // nonblocking pipe fd.
                let n = unsafe { read(self.wake_rx, buf.as_mut_ptr().cast(), buf.len()) };
                if n < buf.len() as isize {
                    break;
                }
            }
        }
    }

    impl Drop for Reactor {
        fn drop(&mut self) {
            // SAFETY: closing fds this reactor uniquely owns; registered
            // fds belong to callers and are untouched.
            unsafe { close(self.wake_rx) };
            #[cfg(target_os = "linux")]
            if let BackendImpl::Epoll { epfd, .. } = self.backend {
                // SAFETY: as above.
                unsafe { close(epfd) };
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn backends() -> Vec<Backend> {
            if cfg!(target_os = "linux") {
                vec![Backend::Epoll, Backend::Poll]
            } else {
                vec![Backend::Poll]
            }
        }

        /// A nonblocking FFI pipe whose ends close on drop.
        struct TestPipe {
            rx: RawFd,
            tx: RawFd,
        }

        impl TestPipe {
            fn new() -> Self {
                let mut fds = [-1i32; 2];
                assert_eq!(unsafe { pipe(fds.as_mut_ptr()) }, 0);
                set_nonblocking_cloexec(fds[0]).unwrap();
                set_nonblocking_cloexec(fds[1]).unwrap();
                Self {
                    rx: fds[0],
                    tx: fds[1],
                }
            }
            fn write_byte(&self) {
                let b = 7u8;
                assert_eq!(unsafe { write(self.tx, (&b as *const u8).cast(), 1) }, 1);
            }
        }

        impl Drop for TestPipe {
            fn drop(&mut self) {
                unsafe { close(self.rx) };
                unsafe { close(self.tx) };
            }
        }

        fn poll_once(r: &mut Reactor, wait_ms: u64) -> (Vec<Event>, Vec<Token>, bool) {
            let mut events = Vec::new();
            let mut expired = Vec::new();
            let woken = r
                .poll(
                    &mut events,
                    &mut expired,
                    Some(Duration::from_millis(wait_ms)),
                )
                .unwrap();
            (events, expired, woken)
        }

        #[test]
        fn register_deregister_lifecycle() {
            for backend in backends() {
                let mut r = Reactor::with_backend(backend).unwrap();
                let p = TestPipe::new();
                r.register(p.rx, Token(1), Interest::READABLE).unwrap();
                assert_eq!(r.registered(), 1);

                // Quiet pipe: no events, just a timeout.
                let (events, expired, woken) = poll_once(&mut r, 10);
                assert!(events.is_empty() && expired.is_empty() && !woken);

                // A byte arrives: readable event under our token.
                p.write_byte();
                let (events, _, _) = poll_once(&mut r, 1000);
                assert_eq!(events.len(), 1);
                assert_eq!(events[0].token, Token(1));
                assert!(events[0].readable && !events[0].writable);

                // Duplicate and reserved tokens are rejected.
                assert!(r.register(p.tx, Token(1), Interest::WRITABLE).is_err());
                assert!(r
                    .register(p.tx, Token(u64::MAX), Interest::WRITABLE)
                    .is_err());

                // Deregistered: the still-readable pipe no longer fires.
                r.deregister(Token(1)).unwrap();
                assert_eq!(r.registered(), 0);
                assert!(r.deregister(Token(1)).is_err());
                let (events, _, _) = poll_once(&mut r, 10);
                assert!(events.is_empty());
            }
        }

        #[test]
        fn modify_rearms_interest() {
            for backend in backends() {
                let mut r = Reactor::with_backend(backend).unwrap();
                let p = TestPipe::new();
                // An empty pipe's write end is immediately writable…
                r.register(p.tx, Token(3), Interest::WRITABLE).unwrap();
                let (events, _, _) = poll_once(&mut r, 1000);
                assert_eq!(events.len(), 1);
                assert!(events[0].writable);
                // …until interest is muted…
                r.modify(Token(3), Interest::NONE).unwrap();
                let (events, _, _) = poll_once(&mut r, 10);
                assert!(events.is_empty());
                // …and again once re-armed.
                r.modify(Token(3), Interest::WRITABLE).unwrap();
                let (events, _, _) = poll_once(&mut r, 1000);
                assert_eq!(events.len(), 1);
                assert!(r.modify(Token(99), Interest::NONE).is_err());
            }
        }

        #[test]
        fn deadlines_fire_in_order() {
            for backend in backends() {
                let mut r = Reactor::with_backend(backend).unwrap();
                let now = Instant::now();
                r.set_deadline(Token(10), now + Duration::from_millis(30));
                r.set_deadline(Token(11), now + Duration::from_millis(1));
                r.set_deadline(Token(12), now + Duration::from_millis(15));
                // Re-arming replaces: token 10 moves earlier than 12.
                r.set_deadline(Token(10), now + Duration::from_millis(8));
                let mut fired = Vec::new();
                while fired.len() < 3 {
                    let (_, expired, _) = poll_once(&mut r, 500);
                    fired.extend(expired);
                }
                assert_eq!(fired, vec![Token(11), Token(10), Token(12)]);
                // All disarmed once fired; a cleared deadline never fires.
                r.set_deadline(Token(13), Instant::now());
                r.clear_deadline(Token(13));
                let (_, expired, _) = poll_once(&mut r, 10);
                assert!(expired.is_empty());
            }
        }

        #[test]
        fn waker_nudges_a_parked_poll_across_threads() {
            for backend in backends() {
                let mut r = Reactor::with_backend(backend).unwrap();
                let waker = r.waker();
                let t = std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(20));
                    waker.wake();
                    waker.wake(); // coalesces with the first
                });
                let started = Instant::now();
                let (events, expired, woken) = poll_once(&mut r, 5000);
                assert!(woken, "poll should report the wake nudge");
                assert!(events.is_empty() && expired.is_empty());
                assert!(started.elapsed() < Duration::from_secs(4));
                t.join().unwrap();
                // The second wake may land after the first poll's drain;
                // either way the pipe goes quiet within one more poll.
                let (_, _, again) = poll_once(&mut r, 10);
                if again {
                    let (_, _, woken) = poll_once(&mut r, 10);
                    assert!(!woken, "wake pipe should be drained");
                }
            }
        }
    }
}
