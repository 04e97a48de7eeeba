import pytest

from deacp.data_algebra import (
    App,
    Carrier,
    EvalMap,
    Flex,
    FlexVarDecl,
    Lit,
    enumerate_maps,
    eval_data,
)
from deacp.errors import DeclarationError, EnumerationLimitError


CARRIER = Carrier(-16, 15)


def test_eval_flexible_variable():
    sigma = EvalMap.of({"i": 11})
    assert eval_data(Flex("i"), sigma, CARRIER) == 11


def test_eval_literal():
    assert eval_data(Lit(5), EvalMap(()), CARRIER) == 5


def test_eval_subtraction():
    sigma = EvalMap.of({"i": 11, "j": 3})
    assert eval_data(App("-", (Flex("i"), Flex("j"))), sigma, CARRIER) == 8


def test_eval_saturates_at_bounds():
    carrier = Carrier(-4, 3)
    sigma = EvalMap.of({"v": 3})
    assert eval_data(App("+", (Flex("v"), Lit(3))), sigma, carrier) == 3
    assert eval_data(App("*", (Lit(-4), Lit(3))), sigma, carrier) == -4


def test_eval_undeclared_variable_is_an_error():
    with pytest.raises(DeclarationError):
        eval_data(Flex("w"), EvalMap.of({"v": 0}), CARRIER)


def test_update_map_pointwise():
    sigma = EvalMap.of({"i": 11, "j": 3})
    updated = sigma.updated("j", 7)
    assert updated.value("i") == 11
    assert updated.value("j") == 7
    assert sigma.value("j") == 3  # the original is untouched


def test_update_with_current_value_is_identity():
    sigma = EvalMap.of({"i": 11, "j": 3})
    assert sigma.updated("j", sigma.value("j")) == sigma


def test_update_then_query():
    sigma = EvalMap.of({"i": 11, "j": 3, "d": 0})
    assert sigma.updated("d", 11).value("d") == 11


def test_update_undeclared_is_an_error():
    with pytest.raises(DeclarationError):
        EvalMap.of({"i": 0}).updated("z", 1)


def test_enumerate_single_variable():
    maps = enumerate_maps(FlexVarDecl(("v",)), Carrier(0, 1))
    assert maps == [EvalMap.of({"v": 0}), EvalMap.of({"v": 1})]


def test_enumerate_empty_declaration():
    assert enumerate_maps(FlexVarDecl(()), Carrier(0, 1)) == [EvalMap(())]


def test_enumerate_lexicographic():
    maps = enumerate_maps(FlexVarDecl(("u", "v")), Carrier(0, 1))
    assert len(maps) == 4
    assert maps[0] == EvalMap.of({"u": 0, "v": 0})
    assert maps[1] == EvalMap.of({"u": 0, "v": 1})
    assert maps[2] == EvalMap.of({"u": 1, "v": 0})


def test_enumerate_count_and_distinctness():
    carrier = Carrier(-2, 1)
    maps = enumerate_maps(FlexVarDecl(("u", "v", "w")), carrier)
    assert len(maps) == carrier.size ** 3
    assert len(set(maps)) == len(maps)


def test_enumeration_bound_error_names_the_count():
    with pytest.raises(EnumerationLimitError) as err:
        enumerate_maps(("u", "v", "w", "x"), Carrier(-16, 15))
    assert (err.value.count, err.value.bound) == (32 ** 4, 10 ** 6)


def test_update_eval_roundtrip():
    sigma = EvalMap.of({"u": 1, "v": 2})
    for value in (-4, 0, 3):
        updated = sigma.updated("u", value)
        assert eval_data(Flex("u"), updated, CARRIER) == value
        assert eval_data(Flex("v"), updated, CARRIER) == 2


@pytest.mark.parametrize("names", [("d",), ("d", "i", "j"), ("a", "m", "q", "r", "z")])
def test_updated_replaces_one_entry_as_rebuilding_the_map_would(names):
    import random

    rng = random.Random(len(names))
    for _ in range(20):
        old = {name: rng.randint(-16, 15) for name in names}
        sigma = EvalMap.of(old)
        for var in names:
            value = rng.randint(-16, 15)
            assert sigma.updated(var, value) == EvalMap.of({**old, var: value})
        for unknown in ("b", "k", "zz"):
            with pytest.raises(DeclarationError):
                sigma.updated(unknown, 0)
