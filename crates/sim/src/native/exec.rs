//! Executable code pages for the per-cone JIT.
//!
//! The crate carries no libc dependency, so the three page-table calls the
//! backend needs (`mmap`, `mprotect`, `munmap`) are issued as raw x86-64
//! Linux syscalls. Pages are mapped writable, filled with the emitted
//! code, then flipped to read+execute before the first call — the mapping
//! is never writable and executable at the same time.

/// `mmap(NULL, len, prot, MAP_PRIVATE|MAP_ANONYMOUS, -1, 0)`.
unsafe fn sys_mmap(len: usize, prot: usize) -> *mut u8 {
    const MAP_PRIVATE_ANON: usize = 0x22;
    let ret: isize;
    std::arch::asm!(
        "syscall",
        inlateout("rax") 9usize => ret,
        in("rdi") 0usize,
        in("rsi") len,
        in("rdx") prot,
        in("r10") MAP_PRIVATE_ANON,
        in("r8") -1isize,
        in("r9") 0usize,
        out("rcx") _,
        out("r11") _,
        options(nostack),
    );
    if ret < 0 {
        std::ptr::null_mut()
    } else {
        ret as *mut u8
    }
}

unsafe fn sys_mprotect(addr: *mut u8, len: usize, prot: usize) -> isize {
    let ret: isize;
    std::arch::asm!(
        "syscall",
        inlateout("rax") 10usize => ret,
        in("rdi") addr,
        in("rsi") len,
        in("rdx") prot,
        out("rcx") _,
        out("r11") _,
        options(nostack),
    );
    ret
}

unsafe fn sys_munmap(addr: *mut u8, len: usize) {
    let ret: isize;
    std::arch::asm!(
        "syscall",
        inlateout("rax") 11usize => ret,
        in("rdi") addr,
        in("rsi") len,
        out("rcx") _,
        out("r11") _,
        options(nostack),
    );
    let _ = ret;
}

/// Signature of every compiled run: narrow slot base in `rdi`, flat
/// wide-word base in `rsi`.
pub(crate) type Entry = unsafe extern "sysv64" fn(*mut u64, *mut u64);

/// Signature of a scalar part function: [`Entry`]'s two stores plus the
/// activity array (dirty and pending bitsets) in `rdx`.
pub(crate) type PartEntry = unsafe extern "sysv64" fn(*mut u64, *mut u64, *mut u64);

const PROT_READ: usize = 1;
const PROT_WRITE: usize = 2;
const PROT_EXEC: usize = 4;

/// One read+execute mapping holding every compiled cone of a module,
/// unmapped on drop.
#[derive(Debug)]
pub(crate) struct ExecMemory {
    base: *mut u8,
    len: usize,
}

// The mapping is private, immutable after construction, and only ever
// read (executed) — safe to move between threads with the simulator.
unsafe impl Send for ExecMemory {}

impl ExecMemory {
    /// Maps `code` into fresh pages and seals them read+execute. Returns
    /// `None` if the kernel refuses the mapping (W^X is then simply
    /// unavailable and the caller interprets instead).
    pub fn new(code: &[u8]) -> Option<ExecMemory> {
        if code.is_empty() {
            return None;
        }
        let page = 4096usize;
        let len = code.len().div_ceil(page) * page;
        unsafe {
            let base = sys_mmap(len, PROT_READ | PROT_WRITE);
            if base.is_null() {
                return None;
            }
            std::ptr::copy_nonoverlapping(code.as_ptr(), base, code.len());
            if sys_mprotect(base, len, PROT_READ | PROT_EXEC) != 0 {
                sys_munmap(base, len);
                return None;
            }
            Some(ExecMemory { base, len })
        }
    }

    /// Entry point at byte offset `off`. Compiled runs take the narrow
    /// slot base (`rdi`) and the flat wide-word base (`rsi`).
    ///
    /// # Safety
    ///
    /// `off` must be the start offset of a function emitted into the code
    /// buffer this mapping was built from.
    pub unsafe fn entry(&self, off: usize) -> Entry {
        debug_assert!(off < self.len);
        std::mem::transmute::<*const u8, Entry>(self.base.add(off))
    }

    /// [`entry`](ExecMemory::entry) for a part function, which also takes
    /// the activity array (`rdx`).
    ///
    /// # Safety
    ///
    /// As for [`entry`](ExecMemory::entry), and the function must have
    /// been emitted as a part function.
    pub unsafe fn part_entry(&self, off: usize) -> PartEntry {
        debug_assert!(off < self.len);
        std::mem::transmute::<*const u8, PartEntry>(self.base.add(off))
    }
}

impl Drop for ExecMemory {
    fn drop(&mut self) {
        unsafe { sys_munmap(self.base, self.len) };
    }
}
