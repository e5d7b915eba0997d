"""Release gate: every advertised criterion must pass at its stated
tolerance. One line per criterion goes to stdout so a verbose run reads as
a checklist."""

import pytest

from blowlab import acceptance

CASES = sorted(acceptance.PRESETS.items(),
               key=lambda kv: int(kv[1].criterion[1:]))


def test_registry_covers_all_twelve_criteria():
    assert [p.criterion for _, p in CASES] == [f"C{i}" for i in range(1, 13)]


@pytest.mark.parametrize(
    "name", [name for name, _ in CASES],
    ids=[f"{p.criterion}-{name}" for name, p in CASES])
def test_criterion(name):
    result = acceptance.run_check(name)
    print(f"{result.criterion} {name}: {'PASS' if result.passed else 'FAIL'}")
    failed = [f"{label}: {detail}" for label, ok, detail in result.checks
              if not ok]
    assert result.passed, "; ".join(failed)
