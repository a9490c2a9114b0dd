import pytest

from cycloseq import coeffs, verification


def _ledger_item(item_id: str) -> dict:
    return next(item for item in verification.typo_ledger(max_n=4) if item["id"] == item_id)


@pytest.mark.parametrize("mutation", [lambda v: v + 1, lambda v: 0])
def test_k0_omissions_are_checked_by_enumeration(monkeypatch, mutation):
    # a two-deletion closed form that drifts from column-deletion enumeration at k = 0
    item = _ledger_item("cprime-k0-matrix-omissions")
    assert item["oracle"] == "closed form matches column-deletion enumeration"
    assert item["verdict"] == "published matrix incomplete"
    c_general = coeffs.c_general
    monkeypatch.setattr(coeffs, "c_general", lambda s, i, j, k: (
        mutation(c_general(s, i, j, k)) if k == 0 else c_general(s, i, j, k)))
    assert _ledger_item("cprime-k0-matrix-omissions")["verdict"] == "UNRESOLVED"
