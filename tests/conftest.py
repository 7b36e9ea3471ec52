import re

from hypothesis import settings

# one profile for every property test: the same examples on every run, no
# wall-clock deadline on a loaded machine, and no example database to replay
settings.register_profile("pillarseg", derandomize=True, deadline=None, max_examples=60,
                          database=None)
settings.load_profile("pillarseg")

CRITERIA = {
    1: "gradient verification",
    2: "ray-cast oracle",
    3: "observability properties",
    4: "fps oracle",
    5: "feast-conv oracle",
    6: "pfn invariance",
    7: "label-generation oracle",
    8: "metric oracles",
    9: "toy training",
    10: "occupancy-ablation structure",
    11: "determinism",
}

_CRITERION_CLASS = re.compile(r"::TestCriterion(\d+)\w*::")

ACCEPTANCE_DETAILS = {}  # criterion -> detail, recorded once its test's assertions pass
ACCEPTANCE_FAILURES = {}  # criterion -> names of its tests that failed, in order


def record_acceptance(number, detail=""):
    ACCEPTANCE_DETAILS[number] = detail


def pytest_runtest_logreport(report):
    # observes reports only: a failed criterion test stays failed, it is just listed
    match = _CRITERION_CLASS.search(report.nodeid)
    if match and report.failed:
        failed = ACCEPTANCE_FAILURES.setdefault(int(match.group(1)), [])
        name = report.nodeid.rsplit("::", 1)[-1]
        if name not in failed:
            failed.append(name)


def pytest_terminal_summary(terminalreporter):
    numbers = sorted(ACCEPTANCE_DETAILS.keys() | ACCEPTANCE_FAILURES.keys())
    if not numbers:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in numbers:
        failed = ACCEPTANCE_FAILURES.get(number)
        if failed:
            status, detail = "FAIL", "failed: " + ", ".join(failed)
        else:
            status, detail = "PASS", ACCEPTANCE_DETAILS[number]
        suffix = f"  ({detail})" if detail else ""
        terminalreporter.write_line(
            f"criterion {number:>2} {CRITERIA[number]:<28} {status}{suffix}")
