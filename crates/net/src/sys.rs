//! The client's probe of an idle connection ([`readable_now`]): the one
//! place the crate speaks to the OS directly, through one poll(2)
//! declared `extern "C"` against the platform libc the binary is linked
//! with anyway. Everything else stays on `std`.

#![allow(unsafe_code)]

use std::os::fd::RawFd;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;

extern "C" {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::fd::AsRawFd;
    use std::time::Duration;

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
}
