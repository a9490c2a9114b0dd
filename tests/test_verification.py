from collections import Counter

import pytest

from cycloseq import coeffs, oracle, patterncounts, verification


def _ledger_item(item_id: str, max_n: int = 4) -> dict:
    return next(item for item in verification.typo_ledger(max_n) if item["id"] == item_id)


def _off_by_one(entries: dict, key) -> dict:
    return {**entries, key: entries.get(key, 0) + 1}


def _bump(real, args: tuple, key):
    """real with the cell at key off by one on the given positional arguments.

    The cell is an entry of a returned dict or distribution, or the value at
    key of a returned count function.
    """
    def patched(*a, **kw):
        out = real(*a, **kw)
        if a != args:
            return out
        if callable(out):
            return lambda h: out(h) + (h == key)
        if isinstance(out, dict):
            return _off_by_one(out, key)
        fields = {name: getattr(out, name) for name in out.__slots__}
        fields["entries"] = _off_by_one(out.entries, key)
        return type(out)(*fields.values())
    return patched


# the one case each bump below breaks
FAILING_CASE = {
    "joint-001-marginal-extra-cell": {"m": 4, "n": 4},
    "triple-corner-binomial-sign": {"m": 3, "n": 2, "cell": [2, 1, 0]},
    "deletion-chain-direction": {"m": 3, "n": 2, "pattern": "0001", "h": 1},
    "marginal-001-prefactor": {"m": 5, "n": 3},
    "run-pair-identity": {"m": 2, "n": 3},
}


@pytest.mark.parametrize("item_id, module, name, args, key", [
    ("joint-001-marginal-extra-cell", patterncounts, "joint_01_001", (4, 4), (1, 0)),
    ("triple-corner-binomial-sign", patterncounts, "triple_01_001_0001", (3, 2), (2, 1, 0)),
    ("deletion-chain-direction", patterncounts, "pattern_counter", (3, 2, "0001"), 1),
    ("marginal-001-prefactor", patterncounts, "pattern_distribution", (5, 3, "001"), 1),
    ("run-pair-identity", oracle, "pattern_distribution", (3, 2, "11"), 1),
])
def test_oracle_backed_ledger_items_can_fail(monkeypatch, item_id, module, name, args, key):
    # one cell off by one on a checked side leaves the item unresolved, and
    # the item lists that case and no other
    confirmed = _ledger_item(item_id, max_n=6)
    assert confirmed["verdict"] != "UNRESOLVED"
    assert "failures" not in confirmed
    monkeypatch.setattr(module, name, _bump(getattr(module, name), args, key))
    item = _ledger_item(item_id, max_n=6)
    assert item["verdict"] == "UNRESOLVED"
    # the joint item's oracle field is the enumerated distribution, which no bump touches
    expected = confirmed["oracle"] if item_id == "joint-001-marginal-extra-cell" else "mismatch"
    assert item["oracle"] == expected
    case = FAILING_CASE[item_id]
    assert [{k: f[k] for k in case} for f in item["failures"]] == [case]
    assert all(f["closed"] != f["oracle"] for f in item["failures"])


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


def test_run_verify_enumerates_each_family_once(monkeypatch):
    # every check and ledger item tallies the same sweep of a family
    sweeps = Counter()
    rotation_classes = oracle.rotation_classes

    def counted(m, n):
        sweeps[m, n] += 1
        return rotation_classes(m, n)

    monkeypatch.setattr(oracle, "rotation_classes", counted)
    assert verification.run_verify(8)["all_equivalent"] is True
    families = {*verification._families(8), *verification.MARGINAL_001_FAMILIES,
                *verification.RUN_PAIR_FAMILIES}
    assert sweeps == Counter(dict.fromkeys(families, 1))
