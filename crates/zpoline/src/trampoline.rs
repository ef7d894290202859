//! The page-zero trampoline and the assembly entry stub.
//!
//! # Control flow after rewriting
//!
//! ```text
//! app:  mov rax, NR          ; syscall number, per the ABI
//!       call rax             ; ← was `syscall` (0f 05), now ff d0
//!         │ pushes return address, jumps to VA = NR (< 512)
//!         ▼
//! 0x000..0x1b8: eb 48 eb 48 ... ; jump sled: `jmp +0x48` at even NR,
//!                               ; `rex.W jmp +0x48` at odd NR, ≤ 6 hops…
//! 0x1b8..0x200: 90 48 90 ... 90 ; …into a short nop tail (`nop` /
//!                               ; `rex.W nop`), which slides to…
//! 0x200: movabs r11, lp_zpoline_entry ; jmp r11
//!         ▼
//! lp_zpoline_entry (asm below): save registers → optional XSAVE →
//!       call the registered dispatcher → optional XRSTOR → restore →
//!       ret   ; straight back to the instruction after the call site
//! ```
//!
//! Deviation from zpoline and the paper: their page holds a plain `nop`
//! sled, so a low syscall number (`read` = 0) walks ~512 `nop`s before
//! the stub while nr 500 walks 12 — the paper benchmarks nr 500 for
//! exactly that reason (§V-B(a)). The jump sled ([`sled_bytes`]) makes
//! every entry reach the stub in at most 42 instructions (6 jumps, then
//! at most 36 tail steps). Like `nop`s, `jmp rel8` leaves flags,
//! registers and the stack untouched. The simulator (`sim-interpose`)
//! keeps the paper's nop sled so it can still model the sled-position
//! effect.
//!
//! # ABI fidelity (paper §IV-B(b))
//!
//! On x86-64 Linux, `syscall` clobbers only `rax` (return value), `rcx`
//! and `r11`. The stub preserves every other general-purpose register
//! exactly, and — when an [`XstateMask`] is set — uses `xsave64`/
//! `xrstor64` to preserve x87/SSE/AVX state across the dispatcher, since
//! compilers freely keep live values in `xmm` registers across syscalls
//! (the paper's Listing 1 shows glibc's pthread initialization doing
//! exactly that).
//!
//! Deviation from the C prototype: the XSAVE area lives on the
//! (64-byte-aligned) stack rather than in a dedicated `%gs`-relative
//! per-task region. Stack placement nests naturally across reentrant
//! interposer invocations (the paper manages its off-stack region "as a
//! stack" for the same reason) at the cost of ~4 KiB of stack per
//! nesting level.
//!
//! # Red zone
//!
//! The `call rax` push itself overwrites the top 8 bytes of the
//! System-V red zone — an inherent property of the zpoline technique
//! that the prototype shares. The stub protects the *rest* of the red
//! zone by moving `rsp` down 128 bytes before its own pushes.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use syscalls::MAX_SYSCALL_NR;

/// Register image captured by the entry stub, in stack layout order.
///
/// The dispatcher receives a `*mut RawFrame`; mutating `a1..a6` before
/// re-issuing the syscall implements argument rewriting, and the
/// dispatcher's return value becomes the application-visible `rax`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct RawFrame {
    /// Syscall number (`rax` at the call site).
    pub nr: u64,
    /// `rdi`.
    pub a1: u64,
    /// `rsi`.
    pub a2: u64,
    /// `rdx`.
    pub a3: u64,
    /// `r10`.
    pub a4: u64,
    /// `r8`.
    pub a5: u64,
    /// `r9`.
    pub a6: u64,
    /// Application `rbx` (saved/restored by the stub; exposed for
    /// completeness and debugging).
    pub saved_rbx: u64,
    /// Application `rbp` (saved/restored by the stub).
    pub saved_rbp: u64,
    /// Return address pushed by `call rax`: the address of the
    /// instruction following the original `syscall`. `clone` handling
    /// needs this to construct the child's initial frame.
    pub ret_addr: u64,
}

impl RawFrame {
    /// The invocation as a [`syscalls::SyscallArgs`] bundle.
    pub fn syscall_args(&self) -> syscalls::SyscallArgs {
        syscalls::SyscallArgs::new(self.nr, [self.a1, self.a2, self.a3, self.a4, self.a5, self.a6])
    }
}

/// A dispatcher invoked by the entry stub for every rewritten syscall.
///
/// # Safety contract
///
/// Runs on the application thread, possibly deep in a libc call; it must
/// be async-signal-safe-ish (no panicking across the boundary, no
/// assumptions about libc state). The returned value is placed in the
/// application's `rax`.
pub type DispatchFn = unsafe extern "C" fn(frame: *mut RawFrame) -> u64;

/// Which extended-state components the stub preserves around the
/// dispatcher (paper §IV-B(b): "a configurable option that controls
/// which extended state components are preserved, if any").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum XstateMask {
    /// Preserve nothing beyond general-purpose registers — the
    /// "lazypoline without xstate preservation" configuration.
    None,
    /// Preserve x87 FPU state only (XCR0 bit 0).
    X87,
    /// Preserve x87 + SSE (`xmm0-15`).
    Sse,
    /// Preserve x87 + SSE + AVX (`ymm` high halves) — the full
    /// default configuration benchmarked in Table II.
    #[default]
    Avx,
}

impl XstateMask {
    /// The XSAVE requested-feature bitmap low byte.
    pub fn rfbm(self) -> u8 {
        match self {
            XstateMask::None => 0b000,
            XstateMask::X87 => 0b001,
            XstateMask::Sse => 0b011,
            XstateMask::Avx => 0b111,
        }
    }
}

// ——— Globals read by the asm stub ———————————————————————————————————
//
// LP_XSTATE_MASK: one byte, the XSAVE RFBM (0 = skip xsave entirely).
// LP_DISPATCH_PTR: the registered dispatcher (never 0 once installed).

#[no_mangle]
static mut LP_XSTATE_MASK: u8 = 0b111;

#[no_mangle]
static LP_DISPATCH_PTR: AtomicUsize = AtomicUsize::new(0);

/// Default dispatcher: execute the syscall unchanged (the paper's
/// "dummy" interposition function used throughout the evaluation).
unsafe extern "C" fn passthrough_dispatch(frame: *mut RawFrame) -> u64 {
    syscalls::raw::syscall((*frame).syscall_args())
}

/// Registers the dispatcher invoked for every rewritten syscall site,
/// returning the previous one (if any).
pub fn set_dispatcher(f: DispatchFn) -> Option<DispatchFn> {
    // Release publishes the dispatcher's code and any state it closes
    // over before the pointer becomes visible; Acquire pairs with a
    // concurrent swap so the returned previous pointer is safe to call.
    // Nothing here needs a single global order across *other* atomics,
    // so SeqCst would only add fence cost on the path every rewritten
    // syscall's stub-load races with.
    let old = LP_DISPATCH_PTR.swap(f as usize, Ordering::AcqRel);
    if old == 0 {
        None
    } else {
        // SAFETY: only ever stores valid DispatchFn pointers.
        Some(unsafe { std::mem::transmute::<usize, DispatchFn>(old) })
    }
}

/// Configures extended-state preservation. Takes effect for subsequent
/// trampoline entries on all threads.
pub fn set_xstate_mask(mask: XstateMask) {
    // SAFETY: single-byte store; the asm stub reads it with a plain
    // load, and either value yields a consistent save/restore pair
    // because the stub re-reads the byte only once per entry.
    unsafe { std::ptr::write_volatile(std::ptr::addr_of_mut!(LP_XSTATE_MASK), mask.rfbm()) };
}

/// Reads the current xstate preservation mask byte (RFBM encoding).
pub fn xstate_mask_byte() -> u8 {
    unsafe { std::ptr::read_volatile(std::ptr::addr_of!(LP_XSTATE_MASK)) }
}

std::arch::global_asm!(
    r#"
    .text
    .globl lp_zpoline_entry
    .type lp_zpoline_entry, @function
    .align 16
lp_zpoline_entry:
    # On entry (via the sled): [rsp] = return address pushed by `call rax`,
    # rax = syscall nr, args in rdi/rsi/rdx/r10/r8/r9.
    sub rsp, 128                  # protect the rest of the red zone
    push qword ptr [rsp + 128]    # frame.ret_addr
    push rbp                      # frame.saved_rbp
    push rbx                      # frame.saved_rbx (rbx = our xsave anchor)
    push r9                       # frame.a6
    push r8                       # frame.a5
    push r10                      # frame.a4
    push rdx                      # frame.a3
    push rsi                      # frame.a2
    push rdi                      # frame.a1
    push rax                      # frame.nr
    mov rbp, rsp                  # rbp = &RawFrame
    xor ebx, ebx                  # rbx = xsave area or 0
    mov rax, qword ptr [rip + LP_XSTATE_MASK@GOTPCREL]
    movzx eax, byte ptr [rax]
    test eax, eax
    je 2f
    # Carve an aligned XSAVE area; 4096 bytes covers x87+SSE+AVX with
    # ample slack on every xsave-capable CPU.
    sub rsp, 4096 + 64
    and rsp, -64
    mov rbx, rsp
    # The XSAVE header (bytes 512..576) must be zero before XSAVE.
    xor edx, edx
    mov qword ptr [rbx + 512], rdx
    mov qword ptr [rbx + 520], rdx
    mov qword ptr [rbx + 528], rdx
    mov qword ptr [rbx + 536], rdx
    mov qword ptr [rbx + 544], rdx
    mov qword ptr [rbx + 552], rdx
    mov qword ptr [rbx + 560], rdx
    mov qword ptr [rbx + 568], rdx
    xsave64 [rbx]                 # eax = RFBM low bits, edx = 0
2:
    mov rdi, rbp                  # arg0 = &RawFrame
    mov rax, qword ptr [rip + LP_DISPATCH_PTR@GOTPCREL]
    mov rax, qword ptr [rax]
    and rsp, -16                  # C ABI alignment for the call
    call rax                      # rax = syscall result
    test rbx, rbx
    je 3f
    mov qword ptr [rbp], rax      # stash result in frame.nr slot
    mov rax, qword ptr [rip + LP_XSTATE_MASK@GOTPCREL]
    movzx eax, byte ptr [rax]
    xor edx, edx
    xrstor64 [rbx]
    mov rax, qword ptr [rbp]      # reload result
3:
    lea rsp, [rbp + 8]            # drop frame.nr (rax now holds result)
    pop rdi
    pop rsi
    pop rdx
    pop r10
    pop r8
    pop r9
    pop rbx
    pop rbp
    add rsp, 8                    # drop frame.ret_addr copy
    add rsp, 128                  # un-skip the red zone
    ret                           # to the instruction after the call site
    .size lp_zpoline_entry, . - lp_zpoline_entry
"#
);

extern "C" {
    /// The assembly entry stub (see module docs).
    pub fn lp_zpoline_entry();
}

/// Displacement of every sled jump. At an odd offset the CPU decodes
/// this byte as a REX.W prefix, which `jmp rel8` and `nop` ignore, so
/// odd entries execute `48 eb 48` and land on an even offset too.
const SLED_DISP: u8 = 0x48;

/// The bytes at VA `0..MAX_SYSCALL_NR`: the jump sled.
///
/// Even offsets hold `eb 48` (`jmp +0x48`) wherever the jump cannot
/// overshoot the stub; past that point they hold `90` (`nop`), so the
/// tail is walked as `nop` / `rex.W nop` two bytes per step. Odd
/// offsets hold `48`. The last byte is a plain `nop` so that no prefix
/// spills onto the stub's first instruction.
pub const fn sled_bytes() -> [u8; MAX_SYSCALL_NR as usize] {
    const LEN: usize = MAX_SYSCALL_NR as usize;
    let mut sled = [0x90u8; LEN];
    let mut off = 0;
    while off < LEN - 1 {
        if off + 2 + SLED_DISP as usize <= LEN {
            sled[off] = 0xeb;
        }
        sled[off + 1] = SLED_DISP;
        off += 2;
    }
    sled[LEN - 1] = 0x90;
    sled
}

static TRAMPOLINE_INSTALLED: AtomicBool = AtomicBool::new(false);

/// Held while page zero is being mapped, filled or probed.
static INSTALL_LOCK: Mutex<()> = Mutex::new(());

/// Handle to the installed page-zero trampoline.
///
/// The mapping is process-global and irrevocable by design: rewritten
/// `call rax` sites all over the process depend on it, so there is no
/// uninstall and the handle is a zero-sized witness.
#[derive(Debug)]
pub struct Trampoline {
    sled_len: usize,
}

/// Total bytes mapped at address 0 (sled + jump stub, page-rounded).
pub const TRAMPOLINE_BYTES: usize = 4096;

impl Trampoline {
    /// Maps the trampoline page at virtual address 0 and arms it.
    ///
    /// Registers the passthrough dispatcher if none is installed yet.
    /// Idempotent: a second call returns a handle without remapping.
    ///
    /// # Errors
    ///
    /// Fails with the underlying `mmap`/`mprotect` error — most commonly
    /// `EPERM` when `vm.mmap_min_addr > 0`.
    pub fn install() -> io::Result<Trampoline> {
        let sled_len = MAX_SYSCALL_NR as usize;
        // Acquire pairs with the Release store at the end of a
        // concurrent install, so a caller that observes `true` also
        // observes the fully written trampoline page.
        if TRAMPOLINE_INSTALLED.load(Ordering::Acquire) {
            return Ok(Trampoline { sled_len });
        }
        // Concurrent first installs would each MAP_FIXED page zero, the
        // later mapping replacing a page the earlier caller may already
        // be executing. Serialize them and re-check under the lock.
        let _install = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        if TRAMPOLINE_INSTALLED.load(Ordering::Acquire) {
            return Ok(Trampoline { sled_len });
        }

        // Fault seam: lets tests and CI force the "page zero
        // unavailable" environment without actually changing
        // vm.mmap_min_addr. Placed after the idempotency check — an
        // already-live trampoline cannot retroactively fail.
        if let Some(e) = faultinject::check(faultinject::Site::TrampolineInstall) {
            return Err(io::Error::from_raw_os_error(e));
        }

        LP_DISPATCH_PTR
            .compare_exchange(
                0,
                passthrough_dispatch as *const () as usize,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .ok();

        // SAFETY: MAP_FIXED at 0 over a region nothing can legitimately
        // occupy; we fully initialize it before making it executable.
        let page = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                TRAMPOLINE_BYTES,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_FIXED,
                -1,
                0,
            )
        };
        if page == libc::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        if !page.is_null() {
            // The kernel honored MAP_FIXED at some other address only if
            // we asked wrongly; treat as unsupported environment.
            unsafe { libc::munmap(page, TRAMPOLINE_BYTES) };
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "kernel refused a mapping at virtual address 0",
            ));
        }

        unsafe {
            // Jump sled covering every syscall number. The sled starts
            // at address 0, which Rust pointer writes reject as null in
            // debug builds, so the fill goes through libc (plain FFI,
            // no null checks), one byte at a time. `black_box` keeps the
            // optimizer from using the `is_null` check above to treat
            // the fill as a write through null.
            const SLED: [u8; MAX_SYSCALL_NR as usize] = sled_bytes();
            let base = std::hint::black_box(page) as usize;
            for (off, &byte) in SLED.iter().enumerate() {
                libc::memset((base + off) as *mut libc::c_void, byte.into(), 1);
            }
            // movabs r11, lp_zpoline_entry ; jmp r11
            // (r11 is syscall-clobbered, so scribbling it is ABI-clean.)
            let stub = sled_len as *mut u8; // page base is 0
            stub.add(0).write(0x49);
            stub.add(1).write(0xbb);
            (stub.add(2) as *mut u64).write_unaligned(lp_zpoline_entry as *const () as usize as u64);
            stub.add(10).write(0x41);
            stub.add(11).write(0xff);
            stub.add(12).write(0xe3);

            if libc::mprotect(page, TRAMPOLINE_BYTES, libc::PROT_READ | libc::PROT_EXEC) != 0 {
                return Err(io::Error::last_os_error());
            }
        }

        // Release: everything above — the sled bytes, the jump stub,
        // the mprotect — happens-before any thread that Acquire-loads
        // `true`. (The patcher checks this flag before every rewrite,
        // so the flag's load cost recurs; its SeqCst fence did not buy
        // anything — there is no second atomic to totally order with.)
        TRAMPOLINE_INSTALLED.store(true, Ordering::Release);
        Ok(Trampoline { sled_len })
    }

    /// Whether the trampoline is live in this process.
    pub fn is_installed() -> bool {
        TRAMPOLINE_INSTALLED.load(Ordering::Acquire)
    }

    /// Length of the sled (= number of syscall numbers covered).
    pub fn sled_len(&self) -> usize {
        self.sled_len
    }

    /// Probes whether this environment permits mapping page zero,
    /// without leaving the trampoline installed. Useful for skipping
    /// tests/benches gracefully.
    ///
    /// `vm.mmap_min_addr = 0` is sufficient but not necessary:
    /// `CAP_SYS_RAWIO` (e.g. root in a container) bypasses the sysctl,
    /// so the probe actually maps page zero once and unmaps it. The
    /// result is cached — both to keep the probe cheap and so a late
    /// probe can never unmap a concurrently installed trampoline.
    pub fn environment_supported() -> bool {
        if Self::is_installed() {
            return true;
        }
        static PROBE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *PROBE.get_or_init(|| {
            // Under the install lock, so the probe cannot unmap a
            // trampoline that a concurrent install is writing.
            let _install = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            if Self::is_installed() {
                return true;
            }
            // SAFETY: PROT_NONE mapping at a fixed address nothing can
            // legitimately occupy before the trampoline exists;
            // immediately unmapped.
            let page = unsafe {
                libc::mmap(
                    std::ptr::null_mut(),
                    4096,
                    libc::PROT_NONE,
                    libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_FIXED,
                    -1,
                    0,
                )
            };
            if page == libc::MAP_FAILED {
                return false;
            }
            let ok = page.is_null();
            // SAFETY: unmapping exactly what the probe mapped.
            unsafe { libc::munmap(page, 4096) };
            ok
        })
    }
}

/// Serializes the crate's tests that enter the trampoline, which share
/// `LP_DISPATCH_PTR` and `LP_XSTATE_MASK`, and those that map, unmap
/// or scan code pages. Dropping the guard restores the passthrough
/// dispatcher and the default mask before unlocking.
#[cfg(test)]
pub(crate) struct TestSerial {
    _guard: std::sync::MutexGuard<'static, ()>,
}

#[cfg(test)]
impl TestSerial {
    pub(crate) fn lock() -> TestSerial {
        static LOCK: Mutex<()> = Mutex::new(());
        TestSerial {
            _guard: LOCK.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }
}

#[cfg(test)]
impl Drop for TestSerial {
    fn drop(&mut self) {
        set_dispatcher(passthrough_dispatch);
        set_xstate_mask(XstateMask::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disasm;
    use std::sync::atomic::AtomicU64;
    use syscalls::{nr, Errno};

    static SEEN_NR: AtomicU64 = AtomicU64::new(0);

    unsafe extern "C" fn counting_dispatch(frame: *mut RawFrame) -> u64 {
        SEEN_NR.store((*frame).nr, Ordering::SeqCst);
        syscalls::raw::syscall((*frame).syscall_args())
    }

    /// Records `frame.nr` and hands it back as the result without
    /// executing anything.
    ///
    /// # Safety
    ///
    /// `frame` must point to a live `RawFrame`, as the stub passes it.
    unsafe extern "C" fn echo_dispatch(frame: *mut RawFrame) -> u64 {
        SEEN_NR.store((*frame).nr, Ordering::SeqCst);
        (*frame).nr
    }

    fn call_via_trampoline(args: syscalls::SyscallArgs) -> u64 {
        // Simulate an already-rewritten site: `call rax` with rax = nr.
        let ret: u64;
        unsafe {
            std::arch::asm!(
                "call rax",
                inlateout("rax") args.nr => ret,
                in("rdi") args.args[0],
                in("rsi") args.args[1],
                in("rdx") args.args[2],
                in("r10") args.args[3],
                in("r8") args.args[4],
                in("r9") args.args[5],
                out("rcx") _,
                out("r11") _,
            );
        }
        ret
    }

    /// Walks the sled from `entry` to its end, checking each step is a
    /// `nop` or a forward `jmp rel8`, optionally behind one
    /// [`SLED_DISP`] prefix. Returns the end offset and the step count.
    fn walk(sled: &[u8], entry: usize) -> (usize, usize) {
        let (mut off, mut steps) = (entry, 0);
        while off < sled.len() {
            let insn = disasm::decode(&sled[off..]);
            assert!(insn.known, "entry {entry}: undecodable byte at {off:#x}");
            let prefix = usize::from(sled[off] == SLED_DISP);
            let op = off + prefix;
            off = match sled[op] {
                0x90 => {
                    assert_eq!(insn.len, prefix + 1, "entry {entry}: nop at {op:#x}");
                    off + insn.len
                }
                0xeb => {
                    assert_eq!(insn.len, prefix + 2, "entry {entry}: jmp at {op:#x}");
                    let disp = sled[op + 1] as i8;
                    assert!(disp >= 0, "entry {entry}: backward jump at {op:#x}");
                    off + insn.len + disp as usize
                }
                other => panic!("entry {entry}: opcode {other:#04x} at {op:#x}"),
            };
            steps += 1;
        }
        (off, steps)
    }

    #[test]
    fn every_sled_entry_walks_forward_to_the_stub() {
        let sled = sled_bytes();
        let mut longest = 0;
        for entry in 0..sled.len() {
            let (end, steps) = walk(&sled, entry);
            assert_eq!(end, sled.len(), "entry {entry} overshoots the stub");
            longest = longest.max(steps);
        }
        // The figure the module docs and DESIGN.md quote.
        assert_eq!(longest, 42);
    }

    #[test]
    fn trampoline_end_to_end() {
        if !Trampoline::environment_supported() {
            eprintln!("vm.mmap_min_addr != 0; skipping trampoline test");
            return;
        }
        let _serial = TestSerial::lock();
        let t = Trampoline::install().unwrap();
        assert_eq!(t.sled_len(), 512);
        assert!(Trampoline::is_installed());
        set_dispatcher(counting_dispatch);

        // getpid through the trampoline must match the real pid.
        let pid = call_via_trampoline(syscalls::SyscallArgs::nullary(nr::GETPID));
        assert_eq!(pid, unsafe { libc::getpid() } as u64);
        assert_eq!(SEEN_NR.load(Ordering::SeqCst), nr::GETPID);

        // Syscall 500 (near the sled's end) must come back ENOSYS.
        let r = call_via_trampoline(syscalls::SyscallArgs::nullary(
            syscalls::NONEXISTENT_SYSCALL,
        ));
        assert_eq!(Errno::from_ret(r), Some(Errno::ENOSYS));
        assert_eq!(SEEN_NR.load(Ordering::SeqCst), syscalls::NONEXISTENT_SYSCALL);

        // Arguments must flow through unmangled: write to an invalid fd.
        let buf = b"zz";
        let r = call_via_trampoline(syscalls::SyscallArgs::new(
            nr::WRITE,
            [u64::MAX, buf.as_ptr() as u64, 2, 0, 0, 0],
        ));
        assert_eq!(Errno::from_ret(r), Some(Errno::EBADF));
    }

    #[test]
    fn every_syscall_number_reaches_the_stub_with_rax_intact() {
        if !Trampoline::environment_supported() {
            eprintln!("vm.mmap_min_addr != 0; skipping trampoline test");
            return;
        }
        let _serial = TestSerial::lock();
        Trampoline::install().unwrap();
        set_dispatcher(echo_dispatch);
        for n in 0..MAX_SYSCALL_NR {
            SEEN_NR.store(u64::MAX, Ordering::SeqCst);
            let r = call_via_trampoline(syscalls::SyscallArgs::nullary(n));
            let seen = SEEN_NR.load(Ordering::SeqCst);
            assert_eq!(seen, n, "dispatcher saw the wrong nr");
            assert_eq!(r, n, "call rax {n} did not come back through the stub");
        }
    }

    /// Overwrites `xmm7` — and all of `ymm7` on AVX hosts — with ones,
    /// then executes the syscall: the dispatcher the xstate mask must
    /// protect the application from.
    ///
    /// # Safety
    ///
    /// `frame` must point to a live `RawFrame`, as the stub passes it.
    unsafe extern "C" fn clobbering_dispatch(frame: *mut RawFrame) -> u64 {
        // SAFETY: the vector registers are caller-saved in the C ABI;
        // `ymm7` is only written once CPUID and XCR0 report AVX.
        if std::arch::is_x86_feature_detected!("avx") {
            std::arch::asm!("vpcmpeqb ymm7, ymm7, ymm7", out("xmm7") _, options(nostack));
        } else {
            std::arch::asm!("pcmpeqb xmm7, xmm7", out("xmm7") _, options(nostack));
        }
        syscalls::raw::syscall((*frame).syscall_args())
    }

    /// Loads a sentinel into `ymm7` (`xmm7` without AVX), crosses the
    /// trampoline via getpid, and returns the register's value after.
    /// The upper half is only loaded and read back on AVX hosts.
    fn ymm7_across_trampoline(sentinel: [u64; 4]) -> [u64; 4] {
        let mut after = [0u64; 4];
        let avx = std::arch::is_x86_feature_detected!("avx");
        // SAFETY: the trampoline is installed, so `call rax` with a
        // syscall number enters the stub, which preserves every register
        // but `rax`, `rcx` and `r11`. `clobber_abi("C")`: without xstate
        // preservation the dispatcher may clobber any vector register,
        // not just xmm7. `rcx`/`r11` are early outputs so `after` cannot
        // be allocated to them. AVX instructions run only on AVX hosts.
        unsafe {
            if avx {
                std::arch::asm!(
                    "vmovdqu ymm7, [{before}]",
                    "call rax",
                    "vmovdqu [{after}], ymm7",
                    before = in(reg) sentinel.as_ptr(),
                    after = in(reg) after.as_mut_ptr(),
                    inlateout("rax") nr::GETPID => _,
                    in("rdi") 0u64, in("rsi") 0u64, in("rdx") 0u64,
                    in("r10") 0u64, in("r8") 0u64, in("r9") 0u64,
                    out("rcx") _, out("r11") _,
                    clobber_abi("C"),
                );
            } else {
                std::arch::asm!(
                    "movdqu xmm7, [{before}]",
                    "call rax",
                    "movdqu [{after}], xmm7",
                    before = in(reg) sentinel.as_ptr(),
                    after = in(reg) after.as_mut_ptr(),
                    inlateout("rax") nr::GETPID => _,
                    in("rdi") 0u64, in("rsi") 0u64, in("rdx") 0u64,
                    in("r10") 0u64, in("r8") 0u64, in("r9") 0u64,
                    out("rcx") _, out("r11") _,
                    clobber_abi("C"),
                );
                after[2..].copy_from_slice(&sentinel[2..]);
            }
        }
        after
    }

    #[test]
    fn xstate_preserved_across_trampoline() {
        if !Trampoline::environment_supported() {
            eprintln!("vm.mmap_min_addr != 0; skipping xstate test");
            return;
        }
        let _serial = TestSerial::lock();
        Trampoline::install().unwrap();
        set_dispatcher(clobbering_dispatch);
        let sentinel = [
            0xdead_beef_cafe_f00d,
            0x0123_4567_89ab_cdef,
            0xfeed_face_0bad_f00d,
            0x1357_9bdf_2468_ace0,
        ];

        // Live vector state across the syscall is exactly the glibc
        // pattern from the paper's Listing 1.
        set_xstate_mask(XstateMask::Avx);
        assert_eq!(
            ymm7_across_trampoline(sentinel),
            sentinel,
            "ymm7 clobbered across interposition with XstateMask::Avx"
        );

        // Negative control: without preservation the clobber shows, so
        // the assertion above is not vacuous.
        set_xstate_mask(XstateMask::None);
        let after = ymm7_across_trampoline(sentinel);
        assert_ne!(after[..2], sentinel[..2], "xmm7 survived XstateMask::None");
        if std::arch::is_x86_feature_detected!("avx") {
            let upper = "ymm7's upper half survived XstateMask::None";
            assert_ne!(after[2..], sentinel[2..], "{upper}");
        }
    }

    #[test]
    fn xstate_mask_encoding() {
        assert_eq!(XstateMask::None.rfbm(), 0);
        assert_eq!(XstateMask::X87.rfbm(), 1);
        assert_eq!(XstateMask::Sse.rfbm(), 3);
        assert_eq!(XstateMask::Avx.rfbm(), 7);
        assert_eq!(XstateMask::default(), XstateMask::Avx);
    }

    #[test]
    fn mask_round_trip() {
        let _serial = TestSerial::lock();
        set_xstate_mask(XstateMask::Sse);
        assert_eq!(xstate_mask_byte(), 3);
        set_xstate_mask(XstateMask::Avx);
        assert_eq!(xstate_mask_byte(), 7);
    }
}
