"""Shared test plumbing: the acceptance-criterion registry and its
end-of-run summary (one PASS/FAIL line per criterion, with the detail the
test returned and then its runtime)."""

import functools
import time

_ACCEPTANCE = {}


def record_criterion(num: int, desc: str, passed: bool, detail: str = "",
                     elapsed: float = 0.0):
    _ACCEPTANCE[num] = (desc, passed, detail, elapsed)


def criterion(num: int, desc: str):
    """Wrap an acceptance test so its outcome and runtime land in the summary
    table even when it dies on an exception."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            passed, detail = False, ""
            try:
                detail = fn(*args, **kwargs) or ""
                passed = True
            except AssertionError as exc:
                detail = str(exc).splitlines()[0]
                raise
            except Exception as exc:
                detail = f"error: {exc!r}"
                raise
            finally:
                record_criterion(num, desc, passed, detail,
                                 time.perf_counter() - t0)
        return wrapper
    return deco


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        desc, ok, detail, elapsed = _ACCEPTANCE[num]
        line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}"
        if detail:
            line += f" -- {detail}"
        terminalreporter.write_line(f"{line} ({elapsed:.1f}s)")
