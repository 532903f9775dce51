// Known-bad fixture for the conservation rule.

pub struct CreditManager {
    total: u64,
    free_pool: u64,
    outstanding: u64,
}

impl CreditManager {
    // no finding: constructors build, they do not mutate.
    pub fn new(total: u64) -> CreditManager {
        CreditManager {
            total,
            free_pool: total,
            outstanding: 0,
        }
    }

    fn conserved(&self) -> bool {
        self.free_pool + self.outstanding == self.total
    }

    // finding: ledger mutation without a conservation assert.
    pub fn sneak_inject(&mut self, n: u64) {
        self.free_pool += n;
    }

    // no finding: mutation guarded by the Eq. 1 assert.
    pub fn try_consume(&mut self, n: u64) -> bool {
        if self.free_pool < n {
            return false;
        }
        self.free_pool -= n;
        self.outstanding += n;
        debug_assert!(self.conserved(), "consume broke Eq. 1 conservation");
        true
    }

    // no finding: delegates to a checked sibling.
    pub fn consume_one(&mut self) -> bool {
        self.try_consume(1)
    }

    // no finding: test-gated fault hooks exist to violate conservation.
    #[cfg(any(test, feature = "test-hooks"))]
    pub fn leak_credit_for_tests(&mut self) {
        self.outstanding += 1;
    }
}
