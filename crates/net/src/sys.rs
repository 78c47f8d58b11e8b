//! Thin raw-syscall shim: the reactor's readiness poller (epoll on
//! Linux, poll(2) on other unixes) and self-pipe waker, and the client's
//! probe of an idle connection ([`readable_now`]).
//!
//! This is the only module in the workspace that speaks to the OS
//! directly — everything else stays on `std`. The declarations below are
//! the handful of stable POSIX/Linux entry points the reactor needs,
//! declared `extern "C"` against the platform libc the binary is linked
//! with anyway; no external crate is involved.
//!
//! Both backends are **level-triggered**: an event repeats on every
//! [`Poller::wait`] until the condition is consumed. The reactor relies
//! on that — it may read only part of a socket's pending bytes in one
//! tick (fair scheduling across connections) and expects to be told
//! again.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

#[cfg(not(unix))]
compile_error!("mix-net's reactor needs a unix readiness backend (epoll or poll)");

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: usize,
    /// Reading will make progress (data, EOF, or a pending error).
    pub readable: bool,
    /// Writing will make progress.
    pub writable: bool,
}

/// Converts an optional timeout to the millisecond argument poll-family
/// calls take: `None` = block forever (-1); sub-millisecond timeouts
/// round *up* so a 200µs deadline does not busy-spin at zero.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis();
            let ms = if ms == 0 && !d.is_zero() { 1 } else { ms };
            ms.min(i32::MAX as u128) as i32
        }
    }
}

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn close(fd: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    // nfds_t is `unsigned long` on Linux and `unsigned int` on the BSD
    // family
    #[cfg(target_os = "linux")]
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
    #[cfg(not(target_os = "linux"))]
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_uint, timeout: i32) -> i32;
}

/// Whether reading `fd` would return at once (data, EOF, or an error
/// pending), asked by one poll(2) that does not wait. A failed poll
/// answers `true`, so the caller treats the descriptor as unusable.
pub fn readable_now(fd: RawFd) -> bool {
    let mut p = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    // SAFETY: `p` is one live, initialized pollfd and the count says one;
    // a zero timeout never blocks, and a bad fd is reported, not UB
    unsafe { poll(&mut p, 1, 0) != 0 }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{timeout_ms, Event};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    // the kernel ABI packs epoll_event on x86-64 only
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// The epoll backend.
    pub struct Poller {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn ctl(
            &mut self,
            op: i32,
            fd: RawFd,
            token: usize,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: if readable { EPOLLIN } else { 0 } | if writable { EPOLLOUT } else { 0 },
                data: token as u64,
            };
            if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(
            &mut self,
            fd: RawFd,
            token: usize,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, readable, writable)
        }

        pub fn modify(
            &mut self,
            fd: RawFd,
            token: usize,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, readable, writable)
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, false, false)
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for i in 0..n as usize {
                let ev = self.buf[i];
                let bits = ev.events;
                // errors and hangups surface as readability: the next
                // read reports the condition precisely (EOF or errno)
                let fail = bits & (EPOLLERR | EPOLLHUP) != 0;
                events.push(Event {
                    token: ev.data as usize,
                    readable: bits & EPOLLIN != 0 || fail,
                    writable: bits & EPOLLOUT != 0 || fail,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }

    /// Creates the waker pipe: nonblocking + close-on-exec both ends.
    pub fn waker_pipe() -> io::Result<[RawFd; 2]> {
        const O_NONBLOCK: i32 = 0o4000;
        const O_CLOEXEC: i32 = 0o2000000;
        extern "C" {
            fn pipe2(fds: *mut i32, flags: i32) -> i32;
        }
        let mut fds = [0i32; 2];
        if unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(fds)
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod imp {
    use super::{poll, timeout_ms, Event, PollFd, POLLIN};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const POLLNVAL: i16 = 0x020;

    /// The portable poll(2) backend: a dense pollfd array plus a parallel
    /// token array, rebuilt in place on (infrequent) dereg.
    pub struct Poller {
        fds: Vec<PollFd>,
        tokens: Vec<usize>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                fds: Vec::new(),
                tokens: Vec::new(),
            })
        }

        fn events_bits(readable: bool, writable: bool) -> i16 {
            (if readable { POLLIN } else { 0 }) | (if writable { POLLOUT } else { 0 })
        }

        pub fn register(
            &mut self,
            fd: RawFd,
            token: usize,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.fds.push(PollFd {
                fd,
                events: Self::events_bits(readable, writable),
                revents: 0,
            });
            self.tokens.push(token);
            Ok(())
        }

        pub fn modify(
            &mut self,
            fd: RawFd,
            token: usize,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            for (i, p) in self.fds.iter_mut().enumerate() {
                if p.fd == fd {
                    p.events = Self::events_bits(readable, writable);
                    self.tokens[i] = token;
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            if let Some(i) = self.fds.iter().position(|p| p.fd == fd) {
                self.fds.swap_remove(i);
                self.tokens.swap_remove(i);
            }
            Ok(())
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let n = unsafe {
                poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as _,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for (p, &token) in self.fds.iter().zip(&self.tokens) {
                if p.revents == 0 {
                    continue;
                }
                let fail = p.revents & (POLLERR | POLLHUP | POLLNVAL) != 0;
                events.push(Event {
                    token,
                    readable: p.revents & POLLIN != 0 || fail,
                    writable: p.revents & POLLOUT != 0 || fail,
                });
            }
            Ok(())
        }
    }

    /// Creates the waker pipe: pipe(2) + fcntl for nonblocking/cloexec.
    pub fn waker_pipe() -> io::Result<[RawFd; 2]> {
        const F_SETFD: i32 = 2;
        const F_GETFL: i32 = 3;
        const F_SETFL: i32 = 4;
        const FD_CLOEXEC: i32 = 1;
        const O_NONBLOCK: i32 = 0x4; // BSD family
        extern "C" {
            fn pipe(fds: *mut i32) -> i32;
            fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
        }
        let mut fds = [0i32; 2];
        if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        for fd in fds {
            unsafe {
                let fl = fcntl(fd, F_GETFL, 0);
                fcntl(fd, F_SETFL, fl | O_NONBLOCK);
                fcntl(fd, F_SETFD, FD_CLOEXEC);
            }
        }
        Ok(fds)
    }
}

pub use imp::Poller;

/// A self-pipe waker: any thread can [`Waker::wake`] the reactor out of
/// its `wait` by writing one byte to the pipe; the reactor registers
/// [`Waker::read_fd`] and [`Waker::drain`]s it when it fires.
///
/// Thread-safe by construction — `write(2)` on a pipe is atomic for
/// single bytes, and a full pipe (`EAGAIN`) means a wake is already
/// pending, which is exactly the semantic wanted.
#[derive(Debug)]
pub struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl Waker {
    /// Creates the pipe pair (both ends nonblocking, close-on-exec).
    pub fn new() -> io::Result<Waker> {
        let [read_fd, write_fd] = imp::waker_pipe()?;
        Ok(Waker { read_fd, write_fd })
    }

    /// The end to register with the [`Poller`] for readability.
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Wakes the reactor. Never blocks; a full pipe is a no-op because a
    /// wake is already pending.
    pub fn wake(&self) {
        let byte = 1u8;
        unsafe { write(self.write_fd, &byte, 1) };
    }

    /// Consumes all pending wake bytes. Returns how many were pending.
    pub fn drain(&self) -> usize {
        let mut total = 0usize;
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                return total;
            }
            total += n as usize;
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::fd::AsRawFd;

    #[test]
    fn waker_wakes_a_blocked_poller_and_drains() {
        let mut poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.register(waker.read_fd(), 1, true, false).unwrap();
        let w = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w.wake();
            w.wake(); // coalesces, never blocks
        });
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        t.join().unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        assert_eq!(waker.drain(), 2);
        // drained: a zero-timeout wait reports nothing
        events.clear();
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.iter().all(|e| e.token != 1));
    }

    #[test]
    fn timeout_expires_with_no_events() {
        let mut poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.register(waker.read_fd(), 7, true, false).unwrap();
        let mut events = Vec::new();
        let t0 = std::time::Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_millis(25)))
            .unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert!(events.is_empty());
    }

    #[test]
    fn listener_becomes_readable_on_connect() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut poller = Poller::new().unwrap();
        poller
            .register(listener.as_raw_fd(), 0, true, false)
            .unwrap();
        let _client = std::net::TcpStream::connect(addr).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 0 && e.readable));
        assert!(listener.accept().is_ok());
    }

    #[test]
    fn readable_now_reports_pending_bytes_and_eof_without_waiting() {
        use std::io::Write as _;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        assert!(!readable_now(client.as_raw_fd()), "a quiet socket");
        server.write_all(b"x").unwrap();
        let t0 = std::time::Instant::now();
        while !readable_now(client.as_raw_fd()) {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "the byte never arrived"
            );
        }
        let client2 = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        drop(listener.accept().unwrap());
        while !readable_now(client2.as_raw_fd()) {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "the close never arrived"
            );
        }
    }

    #[test]
    fn sub_millisecond_timeouts_round_up() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_micros(200))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(40))), 40);
    }
}
