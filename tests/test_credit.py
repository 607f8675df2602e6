"""Credit System: accounts, orders, billing, deposit policies."""

import pytest

from repro.core.credit import (
    CREDITS_PER_CPU_HOUR,
    CappedDailyDeposit,
    CreditSystem,
    InsufficientCredits,
    NetworkOfFavors,
)


def funded(user="alice", amount=1000.0):
    cs = CreditSystem()
    cs.deposit(user, amount)
    return cs


def test_exchange_rate_is_paper_value():
    assert CREDITS_PER_CPU_HOUR == 15.0


def test_deposit_and_balance():
    cs = CreditSystem()
    assert cs.balance("alice") == 0.0
    cs.deposit("alice", 100.0)
    assert cs.balance("alice") == 100.0
    cs.deposit("alice", 50.0)
    assert cs.balance("alice") == 150.0


def test_negative_deposit_rejected():
    cs = CreditSystem()
    with pytest.raises(ValueError):
        cs.deposit("alice", -1.0)


def test_order_escrows_from_account():
    cs = funded()
    order = cs.order("bot1", "alice", 400.0)
    assert cs.balance("alice") == 600.0
    assert order.provisioned == 400.0
    assert order.remaining == 400.0
    assert cs.has_credits("bot1")


def test_order_insufficient_funds():
    cs = funded(amount=10.0)
    with pytest.raises(InsufficientCredits):
        cs.order("bot1", "alice", 100.0)


def test_double_order_rejected():
    cs = funded()
    cs.order("bot1", "alice", 100.0)
    with pytest.raises(ValueError):
        cs.order("bot1", "alice", 100.0)


def test_order_amount_validation():
    cs = funded()
    with pytest.raises(ValueError):
        cs.order("bot1", "alice", 0.0)


def test_bill_consumes_order():
    cs = funded()
    cs.order("bot1", "alice", 100.0)
    assert cs.bill("bot1", 30.0) == 30.0
    assert cs.spent("bot1") == 30.0
    assert cs.get_order("bot1").remaining == 70.0


def test_bill_clamps_at_remaining():
    cs = funded()
    cs.order("bot1", "alice", 100.0)
    assert cs.bill("bot1", 80.0) == 80.0
    assert cs.bill("bot1", 80.0) == 20.0  # only 20 left
    assert not cs.has_credits("bot1")


def test_bill_without_order_is_zero():
    cs = CreditSystem()
    assert cs.bill("ghost", 10.0) == 0.0


def test_bill_negative_rejected():
    cs = funded()
    cs.order("bot1", "alice", 100.0)
    with pytest.raises(ValueError):
        cs.bill("bot1", -5.0)


def test_close_refunds_remaining():
    cs = funded()
    cs.order("bot1", "alice", 100.0)
    cs.bill("bot1", 25.0)
    spent, refund = cs.close("bot1")
    assert spent == 25.0
    assert refund == 75.0
    assert cs.balance("alice") == 975.0
    assert not cs.has_credits("bot1")


def test_close_idempotent():
    cs = funded()
    cs.order("bot1", "alice", 100.0)
    cs.close("bot1")
    spent, refund = cs.close("bot1")
    assert refund == 0.0


def test_close_unknown_order():
    cs = CreditSystem()
    with pytest.raises(KeyError):
        cs.close("ghost")


def test_billing_after_close_is_noop():
    cs = funded()
    cs.order("bot1", "alice", 100.0)
    cs.close("bot1")
    assert cs.bill("bot1", 10.0) == 0.0


def test_new_order_allowed_after_close():
    cs = funded()
    cs.order("bot1", "alice", 100.0)
    cs.close("bot1")
    cs.order("bot1", "alice", 50.0)
    assert cs.has_credits("bot1")


def test_ledger_records_operations():
    cs = funded()
    cs.order("bot1", "alice", 100.0)
    cs.bill("bot1", 10.0)
    cs.close("bot1")
    # transitions only: the spend lives on the order, not in the ledger
    ops = [op for op, _, _ in cs.ledger]
    assert ops == ["deposit", "order", "close"]
    assert cs.get_order("bot1").spent == 10.0
    assert cs.ledger[-1] == ("close", "bot1", 90.0)


# ----------------------------------------------------------------- deposit
def test_capped_daily_deposit_tops_up():
    cs = CreditSystem()
    policy = CappedDailyDeposit(cap=6000.0)
    assert policy.apply(cs, "alice") == 6000.0
    assert cs.balance("alice") == 6000.0
    cs.order("b", "alice", 2000.0)
    assert policy.apply(cs, "alice") == 2000.0
    assert cs.balance("alice") == 6000.0


def test_capped_deposit_never_overfills():
    cs = CreditSystem()
    cs.deposit("alice", 9000.0)
    policy = CappedDailyDeposit(cap=6000.0)
    assert policy.apply(cs, "alice") == 0.0
    assert cs.balance("alice") == 9000.0


# --------------------------------------------------------------- favors
def test_network_of_favors_balance():
    nof = NetworkOfFavors()
    nof.record_favor("lal", "lri", 100.0)
    nof.record_favor("lri", "lal", 30.0)
    assert nof.balance("lal", "lri") == pytest.approx(70.0)
    assert nof.balance("lri", "lal") == pytest.approx(-70.0)


def test_network_of_favors_allowance():
    nof = NetworkOfFavors()
    nof.record_favor("lal", "lri", 100.0)   # lal earned 100
    nof.record_favor("sztaki", "lal", 40.0)  # lal owes 40
    assert nof.deposit_allowance("lal", base=50.0) == pytest.approx(110.0)
    assert nof.deposit_allowance("lri", base=50.0) == pytest.approx(0.0)


def test_network_of_favors_validation():
    nof = NetworkOfFavors()
    with pytest.raises(ValueError):
        nof.record_favor("a", "b", -1.0)
