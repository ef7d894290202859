//! In-place patching of a single verified syscall site.
//!
//! Used by both the static scanner and lazypoline's lazy slow path
//! (paper §IV-A(b)): "we implement the rewrite by temporarily changing
//! the page permissions […], modifying the code page, and restoring its
//! original page permissions afterward. We hold a spinlock throughout
//! this procedure to prevent race conditions".
//!
//! Everything here is written to be callable from a `SIGSYS` handler:
//! no allocation, no locks other than the dedicated spinlock, and the
//! `/proc/self/maps` lookup uses raw syscalls into a stack buffer.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

use syscalls::{nr, raw, Errno};

use crate::disasm;
use crate::trampoline::Trampoline;

/// `syscall` encoding (`0f 05`).
pub const SYSCALL_BYTES: [u8; 2] = [0x0f, 0x05];
/// `call rax` encoding (`ff d0`).
pub const CALL_RAX_BYTES: [u8; 2] = [0xff, 0xd0];

/// Result of a successful [`patch_syscall_site`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatchOutcome {
    /// The site held `syscall` and now holds `call rax`.
    Patched,
    /// The site already held `call rax` — another thread won the race,
    /// which the lazy rewriter treats as success.
    AlreadyPatched,
}

/// Failure modes of [`patch_syscall_site`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatchError {
    /// The bytes at the site are neither `syscall` nor `call rax`.
    NotSyscallInsn {
        /// What was actually found at the site.
        found: [u8; 2],
    },
    /// `mprotect` failed while opening the code page for writing.
    MprotectFailed(Errno),
    /// The address is not inside any mapping of this process.
    UnmappedAddress,
    /// The trampoline is not installed, so patching would create a
    /// `call rax` into unmapped page zero.
    TrampolineMissing,
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchError::NotSyscallInsn { found } => {
                write!(f, "bytes {found:02x?} at site are not a syscall instruction")
            }
            PatchError::MprotectFailed(e) => write!(f, "mprotect failed: {e}"),
            PatchError::UnmappedAddress => write!(f, "address is not mapped"),
            PatchError::TrampolineMissing => write!(f, "trampoline page not installed"),
        }
    }
}

impl std::error::Error for PatchError {}

/// The rewrite spinlock (paper §IV-A(b)). A plain mutex could block in
/// a signal handler; a spinlock cannot deadlock here because the
/// critical section performs no syscall that could itself be dispatched
/// (the SIGSYS handler runs with the selector at ALLOW).
static PATCH_LOCK: AtomicBool = AtomicBool::new(false);

struct SpinGuard;

impl SpinGuard {
    fn lock() -> SpinGuard {
        while PATCH_LOCK
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        SpinGuard
    }
}

impl Drop for SpinGuard {
    fn drop(&mut self) {
        PATCH_LOCK.store(false, Ordering::Release);
    }
}

/// Page protection bits of a mapped region, as parsed from
/// `/proc/self/maps`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionPerms {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// Executable.
    pub exec: bool,
}

impl RegionPerms {
    /// As a `PROT_*` bitmask for `mprotect`.
    pub fn prot(&self) -> i32 {
        let mut p = 0;
        if self.read {
            p |= libc::PROT_READ;
        }
        if self.write {
            p |= libc::PROT_WRITE;
        }
        if self.exec {
            p |= libc::PROT_EXEC;
        }
        p
    }
}

/// Looks up the protection of the mapping containing `addr` by reading
/// `/proc/self/maps` with raw syscalls into a stack buffer (no
/// allocation — safe inside a signal handler).
pub fn region_perms(addr: usize) -> Option<RegionPerms> {
    let path = b"/proc/self/maps\0";
    // SAFETY: open(2) with a NUL-terminated path; fd closed below.
    let fd = unsafe { raw::syscall3(nr::OPEN, path.as_ptr() as u64, libc::O_RDONLY as u64, 0) };
    if Errno::from_ret(fd).is_some() {
        return None;
    }
    let mut result = None;
    let mut buf = [0u8; 4096];
    let mut carry = [0u8; 128]; // longest prefix we need: "start-end perms"
    let mut carry_len = 0usize;
    'outer: loop {
        // SAFETY: reading into our stack buffer.
        let n = unsafe {
            raw::syscall3(
                nr::READ,
                fd,
                buf.as_mut_ptr() as u64,
                buf.len() as u64,
            )
        };
        let n = match Errno::result(n) {
            Ok(0) => break,
            Ok(n) => n as usize,
            Err(_) => break,
        };
        let mut line_start = 0usize;
        for i in 0..n {
            if buf[i] == b'\n' {
                let parsed = if carry_len > 0 {
                    let take = (i - line_start).min(carry.len() - carry_len);
                    carry[carry_len..carry_len + take]
                        .copy_from_slice(&buf[line_start..line_start + take]);
                    let total = carry_len + take;
                    carry_len = 0;
                    parse_maps_line(&carry[..total], addr)
                } else {
                    parse_maps_line(&buf[line_start..i], addr)
                };
                if let Some(p) = parsed {
                    result = Some(p);
                    break 'outer;
                }
                line_start = i + 1;
            }
        }
        // Carry any partial tail line into the next read.
        let tail = n - line_start;
        let take = tail.min(carry.len() - carry_len);
        carry[carry_len..carry_len + take].copy_from_slice(&buf[line_start..line_start + take]);
        carry_len += take;
    }
    // SAFETY: closing the fd we opened.
    unsafe { raw::syscall1(nr::CLOSE, fd) };
    result
}

/// Parses one `/proc/self/maps` line; returns the perms if `addr` lies
/// within the line's range.
fn parse_maps_line(line: &[u8], addr: usize) -> Option<RegionPerms> {
    // Format: 55d6a2a00000-55d6a2a21000 r-xp ...
    let dash = line.iter().position(|&b| b == b'-')?;
    let sp = line.iter().position(|&b| b == b' ')?;
    if dash >= sp || sp + 3 >= line.len() {
        return None;
    }
    let start = parse_hex(&line[..dash])?;
    let end = parse_hex(&line[dash + 1..sp])?;
    if addr < start || addr >= end {
        return None;
    }
    Some(RegionPerms {
        read: line[sp + 1] == b'r',
        write: line[sp + 2] == b'w',
        exec: line[sp + 3] == b'x',
    })
}

fn parse_hex(s: &[u8]) -> Option<usize> {
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    let mut v = 0usize;
    for &b in s {
        let d = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            b'A'..=b'F' => b - b'A' + 10,
            _ => return None,
        };
        v = (v << 4) | d as usize;
    }
    Some(v)
}

/// Rewrites the 2-byte `syscall` at `addr` to `call rax`.
///
/// The write happens under the global rewrite spinlock with the page(s)
/// temporarily set writable-and-executable (keeping execute permission
/// so threads racing through the same page never fault), then the
/// original protection is restored. The 2-byte store is a single
/// unaligned `u16` write; on x86-64 this is atomic with respect to
/// instruction fetch when it does not cross a cache line, matching the
/// C prototype's behaviour.
///
/// # Errors
///
/// See [`PatchError`]. `AlreadyPatched` is *not* an error: concurrent
/// SIGSYS deliveries for the same site are expected under load.
///
/// # Safety
///
/// `addr` must be the address of a genuine, executed `syscall`
/// instruction (e.g. taken from a SUD `SIGSYS` `si_call_addr`) and the
/// trampoline must remain installed for the life of the process.
pub unsafe fn patch_syscall_site(addr: usize) -> Result<PatchOutcome, PatchError> {
    if !Trampoline::is_installed() {
        return Err(PatchError::TrampolineMissing);
    }
    let _guard = SpinGuard::lock();

    let p = addr as *const u8;
    let found = [p.read(), p.add(1).read()];
    if found == CALL_RAX_BYTES {
        return Ok(PatchOutcome::AlreadyPatched);
    }
    if found != SYSCALL_BYTES {
        return Err(PatchError::NotSyscallInsn { found });
    }

    let orig = region_perms(addr).ok_or(PatchError::UnmappedAddress)?;

    let page = addr & !4095;
    // The 2-byte instruction may straddle a page boundary.
    let len = if addr + 2 > page + 4096 { 8192 } else { 4096 };

    // Fault seam: models the opening mprotect failing (transient VMA
    // pressure or a hardened page). Checked before the real syscall so
    // an injected failure leaves the page untouched, exactly like a
    // real EAGAIN/ENOMEM would.
    if let Some(e) = faultinject::check(faultinject::Site::PatchMprotect) {
        return Err(PatchError::MprotectFailed(Errno::new(e)));
    }
    let rwx = libc::PROT_READ | libc::PROT_WRITE | libc::PROT_EXEC;
    let r = raw::syscall3(nr::MPROTECT, page as u64, len as u64, rwx as u64);
    if let Err(e) = Errno::result(r) {
        return Err(PatchError::MprotectFailed(e));
    }

    (addr as *mut u8)
        .cast::<u16>()
        .write_unaligned(u16::from_le_bytes(CALL_RAX_BYTES));

    let r = raw::syscall3(nr::MPROTECT, page as u64, len as u64, orig.prot() as u64);
    if let Err(e) = Errno::result(r) {
        return Err(PatchError::MprotectFailed(e));
    }
    Ok(PatchOutcome::Patched)
}

/// Result of a successful [`patch_page_sites`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchOutcome {
    /// What happened to the faulting site itself.
    pub site: PatchOutcome,
    /// Additional `syscall` sites on the same page rewritten within the
    /// same spinlock/`mprotect` window.
    pub extra_patched: usize,
}

/// Rewrites the faulting `syscall` at `addr` *and* every later
/// rewritable `syscall` site on the same executable page, all under a
/// single spinlock acquisition and a single `mprotect` open/close
/// window.
///
/// A `SIGSYS` delivery already proves `addr` is a genuine, executed
/// syscall instruction. Batch rewriting amortizes the per-site cost
/// (two `mprotect` calls + lock traffic) across every site the sweep
/// can verify on that page: code pages routinely hold several syscall
/// stubs (vsyscall wrappers cluster in libc), and each one patched
/// here is a future `SIGSYS` that never fires.
///
/// The extra sites come from a heuristic disassembly sweep, which is
/// only trustworthy when started from a known instruction boundary —
/// a page boundary is *not* one, and a sweep desynchronized at the
/// page start happily reports `0f 05` byte pairs inside immediates and
/// displacements as "sites"; patching those corrupts live code (this
/// exact failure fires on real libc pages). The faulting address *is*
/// ground truth: the CPU just executed a syscall there. So the sweep
/// is anchored at `addr` and runs forward only, and stops early at the
/// first undecodable instruction (where synchronization can no longer
/// be argued). Sites before the anchor are left to their own future
/// `SIGSYS` — the first of them to fire becomes a new, earlier anchor
/// covering the rest. Sites whose two bytes straddle the page end are
/// likewise skipped.
///
/// # Errors
///
/// Same as [`patch_syscall_site`]. `AlreadyPatched` (with
/// `extra_patched == 0`) means another thread won the race for this
/// site — that thread already swept the page.
///
/// # Safety
///
/// Same contract as [`patch_syscall_site`]: `addr` must come from a
/// SUD `SIGSYS` (`si_call_addr - 2`) and the trampoline must outlive
/// the process's code.
pub unsafe fn patch_page_sites(addr: usize) -> Result<BatchOutcome, PatchError> {
    if !Trampoline::is_installed() {
        return Err(PatchError::TrampolineMissing);
    }
    let _guard = SpinGuard::lock();

    let p = addr as *const u8;
    let found = [p.read(), p.add(1).read()];
    if found == CALL_RAX_BYTES {
        return Ok(BatchOutcome {
            site: PatchOutcome::AlreadyPatched,
            extra_patched: 0,
        });
    }
    if found != SYSCALL_BYTES {
        return Err(PatchError::NotSyscallInsn { found });
    }

    let orig = region_perms(addr).ok_or(PatchError::UnmappedAddress)?;

    let page = addr & !4095;
    // The 2-byte instruction may straddle a page boundary.
    let len = if addr + 2 > page + 4096 { 8192 } else { 4096 };

    // Fault seam: models the opening mprotect failing (transient VMA
    // pressure or a hardened page). Checked before the real syscall so
    // an injected failure leaves the page untouched, exactly like a
    // real EAGAIN/ENOMEM would.
    if let Some(e) = faultinject::check(faultinject::Site::PatchMprotect) {
        return Err(PatchError::MprotectFailed(Errno::new(e)));
    }
    let rwx = libc::PROT_READ | libc::PROT_WRITE | libc::PROT_EXEC;
    let r = raw::syscall3(nr::MPROTECT, page as u64, len as u64, rwx as u64);
    if let Err(e) = Errno::result(r) {
        return Err(PatchError::MprotectFailed(e));
    }

    (addr as *mut u8)
        .cast::<u16>()
        .write_unaligned(u16::from_le_bytes(CALL_RAX_BYTES));

    // Sweep forward from the anchor inside the RWX window (mappings
    // are page-granular, so the whole page belongs to `addr`'s
    // mapping, and RWX guarantees it is readable even for an
    // execute-only region). The anchor itself now decodes as
    // `call rax` — also 2 bytes, so decode continues at `addr + 2`
    // exactly as it would have.
    let anchor_off = addr - page;
    let tail = std::slice::from_raw_parts((page + anchor_off) as *const u8, 4096 - anchor_off);
    let mut extra_patched = 0usize;
    for (off, insn) in disasm::sweep(tail) {
        if !insn.known {
            // Synchronization can no longer be argued past this point.
            break;
        }
        if !insn.is_syscall {
            continue;
        }
        let site = addr + off + insn.len - 2;
        if site == addr || site + 2 > page + 4096 {
            continue;
        }
        let sp = site as *const u8;
        if [sp.read(), sp.add(1).read()] == SYSCALL_BYTES {
            (site as *mut u8)
                .cast::<u16>()
                .write_unaligned(u16::from_le_bytes(CALL_RAX_BYTES));
            extra_patched += 1;
        }
    }

    let r = raw::syscall3(nr::MPROTECT, page as u64, len as u64, orig.prot() as u64);
    if let Err(e) = Errno::result(r) {
        return Err(PatchError::MprotectFailed(e));
    }
    Ok(BatchOutcome {
        site: PatchOutcome::Patched,
        extra_patched,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_maps_line_hit_and_miss() {
        let line = b"7f0000000000-7f0000010000 r-xp 00000000 08:01 123 /lib/x.so";
        let p = parse_maps_line(line, 0x7f0000000123).unwrap();
        assert_eq!(
            p,
            RegionPerms {
                read: true,
                write: false,
                exec: true
            }
        );
        assert!(parse_maps_line(line, 0x7f0000010000).is_none());
        assert!(parse_maps_line(line, 0x6f0000000000).is_none());
    }

    #[test]
    fn parse_maps_line_rejects_garbage() {
        assert!(parse_maps_line(b"", 0).is_none());
        assert!(parse_maps_line(b"nonsense", 0).is_none());
        assert!(parse_maps_line(b"zzzz-qqqq rwxp", 0).is_none());
    }

    #[test]
    fn parse_hex_cases() {
        assert_eq!(parse_hex(b"ff"), Some(255));
        assert_eq!(parse_hex(b"7f0000000000"), Some(0x7f0000000000));
        assert_eq!(parse_hex(b""), None);
        assert_eq!(parse_hex(b"xyz"), None);
        assert_eq!(parse_hex(b"11112222333344445"), None); // > 16 digits
    }

    #[test]
    fn region_perms_finds_our_code_and_stack() {
        // Sibling tests' mmaps could reuse the page unmapped below.
        let _serial = crate::trampoline::TestSerial::lock();
        let code = region_perms(patch_syscall_site as *const () as usize).unwrap();
        assert!(code.exec && !code.write, "text should be r-x: {code:?}");
        let local = 0u8;
        let stack = region_perms(&local as *const u8 as usize).unwrap();
        assert!(stack.read && stack.write && !stack.exec);
        // A freshly unmapped page must report no region.
        unsafe {
            let p = libc::mmap(
                std::ptr::null_mut(),
                4096,
                libc::PROT_READ,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
                -1,
                0,
            );
            assert_ne!(p, libc::MAP_FAILED);
            libc::munmap(p, 4096);
            assert_eq!(region_perms(p as usize), None);
        }
    }

    #[test]
    fn prot_bits() {
        let p = RegionPerms {
            read: true,
            write: false,
            exec: true,
        };
        assert_eq!(p.prot(), libc::PROT_READ | libc::PROT_EXEC);
    }

    #[test]
    fn patch_requires_trampoline_or_valid_site() {
        let _serial = crate::trampoline::TestSerial::lock();
        // Craft a fake "code" page holding a syscall instruction.
        unsafe {
            let page = libc::mmap(
                std::ptr::null_mut(),
                4096,
                libc::PROT_READ | libc::PROT_WRITE | libc::PROT_EXEC,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
                -1,
                0,
            );
            assert_ne!(page, libc::MAP_FAILED);
            let p = page as *mut u8;
            p.write(0x0f);
            p.add(1).write(0x05);

            if !Trampoline::is_installed() && !Trampoline::environment_supported() {
                assert_eq!(
                    patch_syscall_site(p as usize),
                    Err(PatchError::TrampolineMissing)
                );
                libc::munmap(page, 4096);
                return;
            }
            Trampoline::install().unwrap();

            assert_eq!(patch_syscall_site(p as usize), Ok(PatchOutcome::Patched));
            assert_eq!(std::slice::from_raw_parts(p, 2), &CALL_RAX_BYTES);
            // Patching again is idempotent.
            assert_eq!(
                patch_syscall_site(p as usize),
                Ok(PatchOutcome::AlreadyPatched)
            );
            // Permissions restored to RWX (the original).
            let perms = region_perms(p as usize).unwrap();
            assert!(perms.write && perms.exec);

            // Arbitrary other bytes are refused.
            p.add(100).write(0x90);
            p.add(101).write(0x90);
            assert_eq!(
                patch_syscall_site(p as usize + 100),
                Err(PatchError::NotSyscallInsn { found: [0x90, 0x90] })
            );
            libc::munmap(page, 4096);
        }
    }

    /// Maps one RWX page filled with `ret` (0xc3 — decodes cleanly so
    /// the sweep stays synchronized) and returns its base.
    unsafe fn mk_code_page() -> *mut u8 {
        let page = libc::mmap(
            std::ptr::null_mut(),
            4096,
            libc::PROT_READ | libc::PROT_WRITE | libc::PROT_EXEC,
            libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
            -1,
            0,
        );
        assert_ne!(page, libc::MAP_FAILED);
        std::ptr::write_bytes(page as *mut u8, 0xc3, 4096);
        page as *mut u8
    }

    #[test]
    fn batch_patches_all_sites_on_page() {
        let _serial = crate::trampoline::TestSerial::lock();
        unsafe {
            let p = mk_code_page();
            if !Trampoline::is_installed() && !Trampoline::environment_supported() {
                assert_eq!(
                    patch_page_sites(p as usize),
                    Err(PatchError::TrampolineMissing)
                );
                libc::munmap(p as *mut _, 4096);
                return;
            }
            Trampoline::install().unwrap();

            // Three genuine sites scattered over the page…
            for off in [0usize, 1000, 4000] {
                p.add(off).write(0x0f);
                p.add(off + 1).write(0x05);
            }
            // …plus a decoy `0f 05` inside a mov immediate: the sweep
            // must not flag it and the batch must not touch it.
            let decoy: [u8; 5] = [0xb8, 0x0f, 0x05, 0x00, 0x00];
            std::ptr::copy_nonoverlapping(decoy.as_ptr(), p.add(2000), decoy.len());

            // Fault at the first site: the anchored forward sweep
            // covers the two later sites but steps over the decoy.
            let out = patch_page_sites(p as usize).unwrap();
            assert_eq!(out.site, PatchOutcome::Patched);
            assert_eq!(out.extra_patched, 2);
            for off in [0usize, 1000, 4000] {
                assert_eq!(
                    std::slice::from_raw_parts(p.add(off), 2),
                    &CALL_RAX_BYTES,
                    "site at offset {off} not rewritten"
                );
            }
            assert_eq!(std::slice::from_raw_parts(p.add(2000), 5), &decoy);

            // Racing call: faulting site already call rax.
            let again = patch_page_sites(p as usize).unwrap();
            assert_eq!(again.site, PatchOutcome::AlreadyPatched);
            assert_eq!(again.extra_patched, 0);
            libc::munmap(p as *mut _, 4096);
        }
    }

    #[test]
    fn batch_never_patches_backward_and_stops_at_unknown() {
        let _serial = crate::trampoline::TestSerial::lock();
        unsafe {
            let p = mk_code_page();
            if !Trampoline::is_installed() && !Trampoline::environment_supported() {
                libc::munmap(p as *mut _, 4096);
                return;
            }
            Trampoline::install().unwrap();

            // A genuine site *before* the anchor: no ground-truth
            // boundary reaches it, so it must be left for its own
            // SIGSYS.
            p.add(1000).write(0x0f);
            p.add(1001).write(0x05);
            // The faulting (anchor) site.
            p.add(2000).write(0x0f);
            p.add(2001).write(0x05);
            // An undecodable byte (0x06 is invalid in 64-bit mode)
            // between the anchor and a later genuine site: the sweep
            // must stop there rather than patch past a desync point.
            p.add(2500).write(0x06);
            p.add(3000).write(0x0f);
            p.add(3001).write(0x05);

            let out = patch_page_sites(p as usize + 2000).unwrap();
            assert_eq!(out.site, PatchOutcome::Patched);
            assert_eq!(out.extra_patched, 0);
            assert_eq!(std::slice::from_raw_parts(p.add(2000), 2), &CALL_RAX_BYTES);
            assert_eq!(std::slice::from_raw_parts(p.add(1000), 2), &SYSCALL_BYTES);
            assert_eq!(std::slice::from_raw_parts(p.add(3000), 2), &SYSCALL_BYTES);
            libc::munmap(p as *mut _, 4096);
        }
    }
}
