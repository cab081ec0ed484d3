"""Argument validation of ``python -m repro.batch.verify``."""

import pytest

from repro.batch.verify import main


@pytest.mark.parametrize(
    "argv",
    [
        ["--trials", "-5"],
        ["--alloc-trials", "-1"],
        ["--trials", "-5", "--alloc-trials", "-1"],
    ],
)
def test_negative_trial_counts_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must be >= 0" in captured.err
    assert captured.out == ""
