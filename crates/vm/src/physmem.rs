//! Physical-memory accounting for the simulated 128MB testbed.
//!
//! "Multiple buffering of data wastes memory, reducing the space
//! available for the file system cache. A reduced cache size causes
//! higher cache miss rates" (§1) — this module is where that effect
//! lives. Fixed accounts (kernel, server processes) and variable
//! accounts (socket send buffers, per-connection process overhead) are
//! reserved here; whatever remains is the file cache's budget, queried
//! each time the cache considers growing.

use std::collections::BTreeMap;
use std::fmt;

/// A named memory account (who is holding physical memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemAccount {
    /// Kernel text/data, mbuf headers, metadata buffer cache.
    Kernel,
    /// Server executable, heap, per-process fixed state.
    Server,
    /// TCP socket send buffers holding *copies* (conventional path).
    SocketCopies,
    /// Per-connection process overhead (Apache's process-per-connection).
    ProcessOverhead,
    /// The unified/file cache (informational; the cache sizes itself to
    /// the remainder).
    FileCache,
}

/// Tracks reservations against a fixed physical-memory budget.
///
/// # Examples
///
/// ```
/// use iolite_vm::{MemAccount, PhysMemory};
///
/// let mut m = PhysMemory::new(128 << 20);
/// m.reserve(MemAccount::Kernel, 8 << 20);
/// assert_eq!(m.available(), 120 << 20);
/// ```
#[derive(Clone)]
pub struct PhysMemory {
    total: u64,
    accounts: BTreeMap<MemAccount, u64>,
}

impl PhysMemory {
    /// Creates an accountant for `total` bytes of physical memory.
    pub fn new(total: u64) -> Self {
        PhysMemory {
            total,
            accounts: BTreeMap::new(),
        }
    }

    /// The machine's total physical memory.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Adds `bytes` to an account, saturating. Reservations may
    /// oversubscribe the machine; [`PhysMemory::available`] then reports
    /// zero and the cache shrinks to its floor (the paging behaviour of
    /// §3.7 under pressure).
    pub fn reserve(&mut self, account: MemAccount, bytes: u64) {
        self.set(account, self.held(account).saturating_add(bytes));
    }

    /// Removes up to `bytes` from an account.
    pub fn release(&mut self, account: MemAccount, bytes: u64) {
        if let Some(v) = self.accounts.get_mut(&account) {
            *v = v.saturating_sub(bytes);
        }
    }

    /// Sets an account to an absolute value.
    pub fn set(&mut self, account: MemAccount, bytes: u64) {
        self.accounts.insert(account, bytes);
    }

    /// Current holding of one account.
    pub fn held(&self, account: MemAccount) -> u64 {
        self.accounts.get(&account).copied().unwrap_or(0)
    }

    /// Total reserved across all accounts, saturating.
    pub fn used(&self) -> u64 {
        self.accounts
            .values()
            .fold(0, |sum, &b| sum.saturating_add(b))
    }

    /// Bytes not reserved by any account.
    pub fn available(&self) -> u64 {
        self.total.saturating_sub(self.used())
    }

    /// Bytes available to the file cache: the machine total minus every
    /// *other* account's holding. When other accounts oversubscribe the
    /// machine (socket copies under WAN load, §5.7), this reaches zero
    /// and the cache must give everything back.
    pub fn cache_budget(&self) -> u64 {
        let others = self.used() - self.held(MemAccount::FileCache);
        self.total.saturating_sub(others)
    }

    /// Folds the accounting state into a stable digest.
    pub fn digest(&self, h: &mut iolite_buf::Fnv64) {
        h.write_u64(self.total);
        h.write_u64(self.accounts.len() as u64);
        for (account, bytes) in &self.accounts {
            h.write_u32(*account as u32);
            h.write_u64(*bytes);
        }
    }
}

impl fmt::Debug for PhysMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PhysMemory(total={}MB, used={}MB, free={}MB)",
            self.total >> 20,
            self.used() >> 20,
            self.available() >> 20
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_release_roundtrip() {
        let mut m = PhysMemory::new(1000);
        m.reserve(MemAccount::Kernel, 300);
        m.reserve(MemAccount::SocketCopies, 200);
        assert_eq!(m.used(), 500);
        assert_eq!(m.available(), 500);
        m.release(MemAccount::SocketCopies, 50);
        assert_eq!(m.held(MemAccount::SocketCopies), 150);
        assert_eq!(m.available(), 550);
    }

    #[test]
    fn release_saturates() {
        let mut m = PhysMemory::new(1000);
        m.reserve(MemAccount::Server, 100);
        m.release(MemAccount::Server, 500);
        assert_eq!(m.held(MemAccount::Server), 0);
        m.release(MemAccount::ProcessOverhead, 10);
        assert_eq!(m.used(), 0);
    }

    #[test]
    fn oversubscription_reports_zero_available() {
        let mut m = PhysMemory::new(100);
        m.reserve(MemAccount::SocketCopies, 300);
        assert_eq!(m.available(), 0);
        assert_eq!(m.used(), 300);
    }

    #[test]
    fn cache_budget_includes_own_holding() {
        let mut m = PhysMemory::new(1000);
        m.reserve(MemAccount::Kernel, 200);
        m.set(MemAccount::FileCache, 300);
        // 500 free + its own 300.
        assert_eq!(m.cache_budget(), 800);
        m.reserve(MemAccount::SocketCopies, 500);
        // Now free = 0, budget = its own holding.
        assert_eq!(m.cache_budget(), 300);
    }
}
