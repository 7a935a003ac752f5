"""Exit statuses and printed lines of the helper scripts."""

import pathlib
import re
import subprocess
import sys

import pytest

PEAK_RSS = pathlib.Path(__file__).parents[1] / "scripts" / "peak_rss.py"


def peak_rss(*args):
    return subprocess.run([sys.executable, str(PEAK_RSS), *args], capture_output=True, text=True)


@pytest.mark.parametrize(
    "limit, code, status, printed",
    [
        ([], "pass", 0, r"peak resident memory \d+\.\d MB\n$"),
        (["--limit", "10000"], "pass", 0, r"peak resident memory \d+\.\d MB, limit 10000 MB\n$"),
        # no python process fits in 1 MB
        (["--limit", "1"], "pass", 1, r", limit 1 MB\n$"),
        (["--limit", "10000"], "raise SystemExit(3)", 3, r", limit 10000 MB\n$"),
    ],
)
def test_peak_rss_prints_the_peak_and_fails_with_the_command_or_over_the_limit(limit, code, status, printed):
    done = peak_rss(*limit, "--", sys.executable, "-c", code)
    assert done.returncode == status
    assert re.search(printed, done.stdout)


@pytest.mark.parametrize("args", [["--limit", "1"], ["--limit", "1", "--"]])
def test_peak_rss_without_a_command_is_a_usage_error(args):
    done = peak_rss(*args)
    assert done.returncode == 2 and "give the command to run after --" in done.stderr
