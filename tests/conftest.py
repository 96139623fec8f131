import importlib.util
from pathlib import Path

TESTS_DIR = Path(__file__).parent
FIXTURES = TESTS_DIR / "fixtures"

# filled by test_acceptance, printed after the run so the verdicts are
# visible even when pytest captures stdout
ACCEPTANCE_RESULTS: list[str] = []


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def bench_scenarios():
    """bench/scenarios.py, loaded by its path, as bench/run.py uses it."""
    path = TESTS_DIR.parent / "bench" / "scenarios.py"
    spec = importlib.util.spec_from_file_location("bench_scenarios", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# 800 KB, under wire.MAX_LINE_BYTES: a product whose every factor is a
# 4000-digit Integer
BIG_PRODUCT = " * ".join(["9" * 4000] * 200) + " > 0"


def doubling_chain(depth: int) -> str:
    """Ad source whose attribute A{k} refers twice to A{k-1}, down to A0 = 1:
    resolving A{depth} path by path takes 2 ** depth resolutions."""
    return "".join(["A0 = 1\n"] + [f"A{k} = A{k - 1} + A{k - 1}\n"
                                    for k in range(1, depth + 1)])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(line)
