"""Credit System module: Cloud usage accounting and arbitration (§3.3).

"The Credit System module provides a simple credit system whose
interface is similar to banking.  It allows depositing, billing and
paying via virtual credits."  The fixed exchange rate is 15 credits per
CPU·hour of Cloud worker usage.

Life cycle of an order (mirrors the sequence diagram):

1. a user *deposits* (or an administrator's deposit policy does);
2. ``order(bot_id, user, amount)`` escrows credits for one BoT;
3. the Scheduler ``bill``\\ s the order as Cloud workers run;
4. ``close(bot_id)`` pays the spent part and refunds the rest to the
   user's account ("If the BoT execution was completed before all the
   credits have been spent, the Credit System transfers back the
   remaining credits").

Two deposit policies are provided: :class:`CappedDailyDeposit` (the
paper's 200-nodes-per-day style administrator cap) and
:class:`NetworkOfFavors`, the cooperation-between-institutions scheme
the paper cites (Andrade et al.) as the natural extension.  Their
*scheduled* forms — policies the scenario harness ticks over virtual
time, including pool top-ups and per-tenant rationing — live in
:mod:`repro.economics.deposits` and talk to this module through
:meth:`CreditSystem.fund_pool` and :meth:`CreditSystem.set_allowance`.

Pricing note: this module deliberately knows nothing about providers.
:data:`CREDITS_PER_CPU_HOUR` remains the paper's reference exchange
rate and the default everywhere, but the conversion from CPU time to
credits is owned by the economics plane
(:class:`~repro.economics.billing.BillingMeter` over a
:class:`~repro.economics.pricing.PriceBook`), which may quote a
different rate per cloud provider.

Multi-tenant extension (§5's shared-service regime): a
:class:`CreditPool` escrows one lump of credits that *several* BoT
orders draw from concurrently — the situation of the EDGI deployment,
where many users' QoS runs compete for the same cloud supplement.  A
pooled order bills against the pool's shared remainder (so total spend
can never exceed the pooled provision); how the remainder is *rationed*
between simultaneous runs is the arbitration policy's job
(:mod:`repro.core.scheduler`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["CreditSystem", "InsufficientCredits", "CreditOrder",
           "CreditPool", "CappedDailyDeposit", "NetworkOfFavors",
           "CREDITS_PER_CPU_HOUR"]

#: Fixed exchange rate (§3.3): 1 CPU·hour of Cloud worker = 15 credits.
CREDITS_PER_CPU_HOUR = 15.0


class InsufficientCredits(RuntimeError):
    """The user's account cannot cover the requested order."""


@dataclass
class CreditOrder:
    """Escrowed credits supporting one BoT's QoS.

    ``pool`` names the :class:`CreditPool` backing the order, when the
    BoT draws from a shared provision instead of a private escrow; a
    pooled order's own ``provisioned`` stays 0 and its spendable
    remainder is the pool's.
    """

    bot_id: str
    user: str
    provisioned: float
    spent: float = 0.0
    closed: bool = False
    pool: Optional[str] = None
    #: arbitration cap on this order's total spend (pooled orders only;
    #: None = may spend up to the whole pool remainder)
    allowance: Optional[float] = None

    @property
    def remaining(self) -> float:
        return max(0.0, self.provisioned - self.spent)


@dataclass
class CreditPool:
    """One shared escrow that several BoT orders bill against.

    ``expected_members`` declares how many BoTs will eventually join
    (a service admitting a known tenant stream sets it up front) so a
    fair-share arbiter can reserve slices for tenants that have not
    arrived yet.
    """

    pool_id: str
    user: str
    provisioned: float
    spent: float = 0.0
    closed: bool = False
    members: List[str] = field(default_factory=list)
    expected_members: Optional[int] = None

    @property
    def remaining(self) -> float:
        return max(0.0, self.provisioned - self.spent)


class CreditSystem:
    """Accounts, orders, billing — the banking interface of §3.3."""

    def __init__(self) -> None:
        self._accounts: Dict[str, float] = {}
        self._orders: Dict[str, CreditOrder] = {}
        self._pools: Dict[str, CreditPool] = {}
        #: audit log of the account, escrow and pool transitions as
        #: (op, user/bot/pool, amount) tuples — deposit, order, close,
        #: open/fund/join/close_pool: O(BoTs), never one per bill.
        #: Spend lives where its readers look: ``CreditOrder.spent``,
        #: ``CreditPool.spent`` and the billing meter's per-provider sums
        self.ledger: List[Tuple[str, str, float]] = []

    # ---------------------------------------------------------- accounts
    def deposit(self, user: str, amount: float) -> float:
        """Credit a user account; returns the new balance."""
        if amount < 0:
            raise ValueError("deposit must be non-negative")
        self._accounts[user] = self._accounts.get(user, 0.0) + amount
        self.ledger.append(("deposit", user, amount))
        return self._accounts[user]

    def balance(self, user: str) -> float:
        return self._accounts.get(user, 0.0)

    # ------------------------------------------------------------ orders
    def order(self, bot_id: str, user: str, amount: float) -> CreditOrder:
        """Escrow ``amount`` credits from ``user`` for ``bot_id``."""
        if amount <= 0:
            raise ValueError("order amount must be positive")
        if bot_id in self._orders and not self._orders[bot_id].closed:
            raise ValueError(f"BoT {bot_id!r} already has an open order")
        if self.balance(user) < amount:
            raise InsufficientCredits(
                f"user {user!r} has {self.balance(user):.1f} credits, "
                f"needs {amount:.1f}")
        self._accounts[user] -= amount
        order = CreditOrder(bot_id=bot_id, user=user, provisioned=amount)
        self._orders[bot_id] = order
        self.ledger.append(("order", bot_id, amount))
        return order

    def get_order(self, bot_id: str) -> Optional[CreditOrder]:
        return self._orders.get(bot_id)

    def has_credits(self, bot_id: str) -> bool:
        """Scheduler's periodic question: any open provisioned credits?"""
        order = self._orders.get(bot_id)
        if order is None or order.closed:
            return False
        return self.remaining_for(bot_id) > 0

    def remaining_for(self, bot_id: str) -> float:
        """Spendable credits behind an order (pool-aware)."""
        order = self._orders.get(bot_id)
        if order is None or order.closed:
            return 0.0
        if order.pool is not None:
            pool = self._pools[order.pool]
            if pool.closed:
                return 0.0
            remaining = pool.remaining
            if order.allowance is not None:
                remaining = min(remaining,
                                max(0.0, order.allowance - order.spent))
            return remaining
        return order.remaining

    def bill(self, bot_id: str, amount: float) -> float:
        """Consume credits from the order; returns what was billable.

        Billing is clamped to the remaining escrow (the order's own, or
        the shared pool's for pooled orders) — the Scheduler stops
        Cloud workers when this returns less than asked.
        """
        if amount < 0:
            raise ValueError("bill amount must be non-negative")
        order = self._orders.get(bot_id)
        if order is None or order.closed:
            return 0.0
        billed = min(amount, self.remaining_for(bot_id))
        order.spent += billed
        if order.pool is not None:
            self._pools[order.pool].spent += billed
        return billed

    def bill_many(self, bot_id: str, amounts: List[float],
                  shortfall_tol: float = 0.0) -> Tuple[List[float], int]:
        """Bill a sequence of amounts as one batch.

        Float-identical to calling :meth:`bill` once per amount in
        order — the order/pool lookups and the remaining-escrow
        arithmetic are hoisted out of the loop, but every clamp and
        accumulation happens in the same sequence the repeated scalar
        calls would produce.  Billing stops after
        the first shortfall (``billed < amount - shortfall_tol``),
        which is exactly where the Scheduler stops billing a run it is
        about to tear down.

        Returns ``(billed, fail)``: one billed value per *attempted*
        amount (the list is short when a shortfall stopped the batch),
        and the index of the shortfall, or ``-1`` if every amount was
        covered in full.
        """
        out: List[float] = []
        order = self._orders.get(bot_id)
        if order is None or order.closed:
            for amount in amounts:
                if amount < 0:
                    raise ValueError("bill amount must be non-negative")
                out.append(0.0)
                if 0.0 < amount - shortfall_tol:
                    return out, len(out) - 1
            return out, -1
        spent = order.spent
        fail = -1
        if order.pool is None:
            provisioned = order.provisioned
            # fast path: when the escrow covers the whole batch with
            # margin, every clamp resolves to ``billed == amount`` —
            # sequential partial sums of non-negative floats are
            # monotone, so no prefix can overshoot what the full sum
            # (plus margin) fits.  The accumulation below replays the
            # identical float adds.
            if amounts and min(amounts) >= 0.0:
                total = 0.0
                for amount in amounts:
                    total += amount
                remaining = provisioned - spent
                if remaining >= total * (1.0 + 1e-9) + 1e-9:
                    for amount in amounts:
                        spent += amount
                    order.spent = spent
                    return list(amounts), -1
            for amount in amounts:
                if amount < 0:
                    raise ValueError("bill amount must be non-negative")
                remaining = provisioned - spent
                if remaining < 0.0:
                    remaining = 0.0
                billed = min(amount, remaining)
                spent += billed
                out.append(billed)
                if billed < amount - shortfall_tol:
                    fail = len(out) - 1
                    break
            order.spent = spent
            return out, fail
        pool = self._pools[order.pool]
        pool_closed = pool.closed
        pool_provisioned = pool.provisioned
        pool_spent = pool.spent
        allowance = order.allowance
        if not pool_closed and amounts and min(amounts) >= 0.0:
            # same whole-batch-fits fast path, against the pooled
            # remainder (and the arbitration allowance, both of which
            # shrink by exactly the billed partial sums)
            total = 0.0
            for amount in amounts:
                total += amount
            remaining = pool_provisioned - pool_spent
            if remaining < 0.0:
                remaining = 0.0
            if allowance is not None:
                cap = allowance - spent
                if cap < 0.0:
                    cap = 0.0
                if cap < remaining:
                    remaining = cap
            if remaining >= total * (1.0 + 1e-9) + 1e-9:
                for amount in amounts:
                    spent += amount
                    pool_spent += amount
                order.spent = spent
                pool.spent = pool_spent
                return list(amounts), -1
        for amount in amounts:
            if amount < 0:
                raise ValueError("bill amount must be non-negative")
            if pool_closed:
                remaining = 0.0
            else:
                remaining = pool_provisioned - pool_spent
                if remaining < 0.0:
                    remaining = 0.0
                if allowance is not None:
                    cap = allowance - spent
                    if cap < 0.0:
                        cap = 0.0
                    if cap < remaining:
                        remaining = cap
            billed = min(amount, remaining)
            spent += billed
            pool_spent += billed
            out.append(billed)
            if billed < amount - shortfall_tol:
                fail = len(out) - 1
                break
        order.spent = spent
        pool.spent = pool_spent
        return out, fail

    def close(self, bot_id: str) -> Tuple[float, float]:
        """Pay the order: returns (spent, refunded).

        A pooled order never refunds on its own — the shared remainder
        stays available to the pool's other members until
        :meth:`close_pool`.
        """
        order = self._orders.get(bot_id)
        if order is None:
            raise KeyError(f"no order for BoT {bot_id!r}")
        if order.closed:
            return order.spent, 0.0
        order.closed = True
        if order.pool is not None:
            self.ledger.append(("close", bot_id, 0.0))
            return order.spent, 0.0
        refund = order.remaining
        self._accounts[order.user] = self._accounts.get(order.user, 0.0) + refund
        self.ledger.append(("close", bot_id, refund))
        return order.spent, refund

    # ------------------------------------------------------------- pools
    def open_pool(self, pool_id: str, user: str, amount: float,
                  expected_members: Optional[int] = None) -> CreditPool:
        """Escrow ``amount`` from ``user`` into a shared pool."""
        if amount <= 0:
            raise ValueError("pool amount must be positive")
        if pool_id in self._pools and not self._pools[pool_id].closed:
            raise ValueError(f"pool {pool_id!r} is already open")
        if expected_members is not None and expected_members < 1:
            raise ValueError("expected_members must be >= 1 or None")
        if self.balance(user) < amount:
            raise InsufficientCredits(
                f"user {user!r} has {self.balance(user):.1f} credits, "
                f"needs {amount:.1f}")
        self._accounts[user] -= amount
        pool = CreditPool(pool_id=pool_id, user=user, provisioned=amount,
                          expected_members=expected_members)
        self._pools[pool_id] = pool
        self.ledger.append(("open_pool", pool_id, amount))
        return pool

    def fund_pool(self, pool_id: str, user: str, amount: float) -> float:
        """Deposit additional credits into an *open* pool from a user
        account (the scheduled deposit policies' verb — see
        :mod:`repro.economics.deposits`); returns the pool's new
        remaining balance."""
        pool = self._pools.get(pool_id)
        if pool is None or pool.closed:
            raise KeyError(f"no open pool {pool_id!r}")
        if amount < 0:
            raise ValueError("fund amount must be non-negative")
        if self.balance(user) < amount:
            raise InsufficientCredits(
                f"user {user!r} has {self.balance(user):.1f} credits, "
                f"needs {amount:.1f}")
        self._accounts[user] -= amount
        pool.provisioned += amount
        self.ledger.append(("fund_pool", pool_id, amount))
        return pool.remaining

    def join_pool(self, bot_id: str, pool_id: str) -> CreditOrder:
        """Open a pooled order: the BoT bills the shared escrow."""
        pool = self._pools.get(pool_id)
        if pool is None or pool.closed:
            raise KeyError(f"no open pool {pool_id!r}")
        if bot_id in self._orders and not self._orders[bot_id].closed:
            raise ValueError(f"BoT {bot_id!r} already has an open order")
        order = CreditOrder(bot_id=bot_id, user=pool.user, provisioned=0.0,
                            pool=pool_id)
        self._orders[bot_id] = order
        pool.members.append(bot_id)
        self.ledger.append(("join_pool", bot_id, 0.0))
        return order

    def get_pool(self, pool_id: str) -> Optional[CreditPool]:
        return self._pools.get(pool_id)

    def set_allowance(self, bot_id: str, allowance: Optional[float]) -> None:
        """Cap a pooled order's total spend (arbitration hook)."""
        order = self._orders.get(bot_id)
        if order is None:
            raise KeyError(f"no order for BoT {bot_id!r}")
        if allowance is not None and allowance < 0:
            raise ValueError("allowance must be >= 0 or None")
        order.allowance = allowance

    def close_pool(self, pool_id: str) -> Tuple[float, float]:
        """Close a pool and every member order: (spent, refunded)."""
        pool = self._pools.get(pool_id)
        if pool is None:
            raise KeyError(f"no pool {pool_id!r}")
        if pool.closed:
            return pool.spent, 0.0
        for bot_id in pool.members:
            order = self._orders.get(bot_id)
            if order is not None and not order.closed:
                order.closed = True
        refund = pool.remaining
        pool.closed = True
        self._accounts[pool.user] = self._accounts.get(pool.user, 0.0) + refund
        self.ledger.append(("close_pool", pool_id, refund))
        return pool.spent, refund

    # --------------------------------------------------------- reporting
    def spent(self, bot_id: str) -> float:
        order = self._orders.get(bot_id)
        return order.spent if order else 0.0

    def provisioned(self, bot_id: str) -> float:
        order = self._orders.get(bot_id)
        return order.provisioned if order else 0.0


@dataclass
class CappedDailyDeposit:
    """Administrator deposit policy: top accounts up to a daily cap.

    The paper's example — "a simple policy that limits SpeQuloS usage of
    a Cloud to 200 nodes per day" via a periodic deposit function — is
    implemented as intended: each application tops the account back up
    to ``cap`` credits (the literal formula printed in §3.3,
    ``max(6000, 6000 - spent)``, is constant; see DESIGN.md
    interpretation notes).
    """

    cap: float = 6000.0
    period: float = 86400.0

    def apply(self, credits: CreditSystem, user: str) -> float:
        """Run one deposit round; returns the amount deposited."""
        topup = max(0.0, self.cap - credits.balance(user))
        if topup:
            credits.deposit(user, topup)
        return topup


class NetworkOfFavors:
    """Inter-institution cooperation accounting (Andrade et al.).

    Each BE-DCI earns *favors* when its resources compute for another
    institution's users and spends them when the roles reverse; the
    balance modulates how much cloud credit an institution's users
    receive.  This is the extension §3.3 points at for multi-BE-DCI /
    multi-cloud cooperation.
    """

    def __init__(self) -> None:
        self._favors: Dict[Tuple[str, str], float] = {}

    def record_favor(self, donor: str, beneficiary: str,
                     amount: float) -> None:
        """``donor`` computed ``amount`` credits worth for ``beneficiary``."""
        if amount < 0:
            raise ValueError("favor amount must be non-negative")
        key = (donor, beneficiary)
        self._favors[key] = self._favors.get(key, 0.0) + amount

    def balance(self, a: str, b: str) -> float:
        """Net favors ``a`` holds over ``b`` (positive: b owes a)."""
        return (self._favors.get((a, b), 0.0)
                - self._favors.get((b, a), 0.0))

    def deposit_allowance(self, institution: str, base: float) -> float:
        """Deposit budget for an institution: base plus net favors
        earned across all peers (never below zero)."""
        earned = sum(v for (d, _b), v in self._favors.items()
                     if d == institution)
        owed = sum(v for (_d, b), v in self._favors.items()
                   if b == institution)
        return max(0.0, base + earned - owed)
