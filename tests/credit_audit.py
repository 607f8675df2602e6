"""Credit accounting checks that need no per-bill log.

:class:`~repro.core.credit.CreditSystem` keeps the account, escrow and
pool transitions in its ``ledger`` but no entry per bill; spend lives
on the orders and pools.  Two helpers recover what a bill log gave the
tests:

* :func:`record_bills` spies on one credit system's ``bill`` and
  ``bill_many`` and records every non-zero billed amount in order,
  which is exactly what the ledger's ``("bill", bot, amount)`` entries
  held;
* :func:`assert_conserved` checks that every credit deposited is
  accounted for — held in an account, spent, or still in escrow.
"""

import math


def record_bills(credits):
    """Record each non-zero amount ``credits`` bills, as
    ``(bot_id, amount)`` in billing order; returns the live list."""
    bills = []
    bill, bill_many = credits.bill, credits.bill_many

    def spy_bill(bot_id, amount):
        billed = bill(bot_id, amount)
        if billed:
            bills.append((bot_id, billed))
        return billed

    def spy_bill_many(bot_id, amounts, shortfall_tol=0.0):
        out, fail = bill_many(bot_id, amounts, shortfall_tol)
        bills.extend((bot_id, billed) for billed in out if billed)
        return out, fail

    credits.bill = spy_bill
    credits.bill_many = spy_bill_many
    return bills


def assert_conserved(credits, rel_tol=1e-9):
    """Σ deposits = Σ balances + Σ spend + Σ remaining escrow.

    Deposits are summed from the ledger; the accounts, orders and
    pools to read are the ones the ledger names.  Spend is summed over
    every order, pooled ones included; escrow is what open private
    orders and open pools still hold.  A pool's escrow and its refund
    at close follow the pool's own ``spent``, so the identity also
    checks that figure against its members' spend.
    """
    deposited = 0.0
    users, bots, pools = {}, {}, {}
    for op, who, amount in credits.ledger:
        if op == "deposit":
            deposited += amount
            users[who] = None
        elif op in ("order", "join_pool"):
            assert who not in bots, f"BoT {who!r} ordered twice"
            bots[who] = None
        elif op == "open_pool":
            assert who not in pools, f"pool {who!r} opened twice"
            pools[who] = None
    held = sum(credits.balance(user) for user in users)
    spent = escrowed = 0.0
    for bot_id in bots:
        order = credits.get_order(bot_id)
        spent += order.spent
        if order.pool is None and not order.closed:
            escrowed += order.remaining
    for pool_id in pools:
        pool = credits.get_pool(pool_id)
        if not pool.closed:
            escrowed += pool.remaining
    assert math.isclose(deposited, held + spent + escrowed,
                        rel_tol=rel_tol), (
        f"credits not conserved: deposited {deposited!r}, held {held!r}"
        f" + spent {spent!r} + escrowed {escrowed!r}")
