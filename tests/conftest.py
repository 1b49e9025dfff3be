import dataclasses

import pytest

from ftecsim import build_hex_color_code
from ftecsim.decoders import CONTINUE, policy_decision
from ftecsim.diffvec import difference_vector
from ftecsim.extraction import NoiseModel, compile_schedule
from ftecsim.recovery import build_table

_ACCEPTANCE_LINES: list[tuple[int, bool, str]] = []


def record_criterion(number: int, ok: bool, detail: str) -> None:
    _ACCEPTANCE_LINES.append((number, ok, detail))


def run_stream(kind: str, t: int, stream):
    """The pure rule's decision on each prefix of a syndrome stream, up to
    the first stop; returns the last one."""
    for m in range(1, len(stream) + 1):
        decision = policy_decision(kind, t, stream[0] != 0, difference_vector(stream[:m]))
        if decision.action != CONTINUE:
            break
    return decision


def advance(table, state, changed):
    """One round of a policy table: the next state and its entry column."""
    state = table.successor[2 * state + changed]
    return state, table.entries[:, state]


@pytest.fixture(scope="session")
def code3():
    return build_hex_color_code(3)


@pytest.fixture(scope="session")
def interleaved3(code3):
    """The d=3 code with its X and Z generators interleaved: self-dual, but
    neither sector is one bit range of the packed syndrome."""
    gens = code3.generators
    return dataclasses.replace(
        code3, generators=tuple(gens[i] for pair in zip((0, 1, 2), (3, 4, 5)) for i in pair),
        x_sector=(0, 2, 4), z_sector=(1, 3, 5))


@pytest.fixture(scope="session")
def code5():
    return build_hex_color_code(5)


@pytest.fixture(scope="session")
def table3(code3):
    return build_table(code3, 2)


@pytest.fixture(scope="session")
def table5(code5):
    return build_table(code5, 3)


@pytest.fixture(scope="session")
def compiled3(code3):
    return compile_schedule(code3, NoiseModel(0.0))


@pytest.fixture(scope="session")
def compiled5(code5):
    return compile_schedule(code5, NoiseModel(0.0))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number, ok, detail in sorted(_ACCEPTANCE_LINES):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d}: {status} - {detail}")
