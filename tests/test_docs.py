"""Documentation stays honest: links resolve, docs and CLI don't drift.

CI's docs job runs this module (plus the literal ``--help`` smoke over
every subcommand).  Three failure modes it guards:

- a README/docs relative link pointing at a moved or deleted file;
- a CLI subcommand or flag added without documentation (or documented
  but removed from the parser);
- the ``--faults`` mini-language reference in ``docs/cli.md`` drifting
  from the grammar ``FaultSchedule.parse`` actually accepts.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import re

import pytest

from repro.cli import build_parser

REPO = pathlib.Path(__file__).parent.parent
DOC_FILES = [
    REPO / "README.md",
    REPO / "benchmarks" / "README.md",
    *sorted((REPO / "docs").glob("*.md")),
]

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _subcommands():
    parser = build_parser()
    actions = [
        a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
    ]
    assert actions, "the CLI must expose subcommands"
    return actions[0].choices


def test_doc_files_exist():
    for path in (REPO / "README.md", REPO / "docs" / "architecture.md",
                 REPO / "docs" / "cli.md"):
        assert path.is_file(), f"missing {path.relative_to(REPO)}"


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO)))
def test_relative_links_resolve(doc):
    """Every non-http markdown link points at a real file/directory."""
    text = doc.read_text()
    for target in _LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (doc.parent / target.split("#")[0]).resolve()
        assert resolved.exists(), (
            f"{doc.relative_to(REPO)} links to {target}, which does not exist"
        )


def test_top_parser_help_renders():
    parser = build_parser()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["--help"])
    assert exc.value.code == 0
    assert "provision-fault-aware" in out.getvalue()


@pytest.mark.parametrize("name", sorted(_subcommands()))
def test_subcommand_help_renders(name):
    """`python -m repro.cli <sub> --help` exits 0 for every subcommand."""
    parser = build_parser()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([name, "--help"])
    assert exc.value.code == 0
    assert "usage" in out.getvalue()


def test_every_subcommand_documented():
    readme = (REPO / "README.md").read_text()
    cli_md = (REPO / "docs" / "cli.md").read_text()
    for name in _subcommands():
        assert f"`{name}`" in readme, f"README.md does not document `{name}`"
        assert name in cli_md, f"docs/cli.md does not document `{name}`"


@pytest.mark.parametrize(
    "subcommand,flags",
    [
        (
            "fleet",
            ["--faults", "--retries", "--hedge-ms", "--autoscale",
             "--autoscale-mode", "--arrivals", "--trace",
             "--over-provision", "--policy", "--seed", "--core",
             "--shards", "--percentile-mode",
             "--carbon", "--deferrable", "--deferrable-policy",
             "--power-cap", "--deferral-horizon",
             "--metrics-out", "--trace-out", "--metrics-window-s", "--json"],
        ),
        (
            "provision-fault-aware",
            ["--faults", "--retries", "--hedge-ms", "--arrivals", "--trace",
             "--target-availability", "--baseline-r", "--r-min", "--r-max",
             "--r-tol", "--max-evals", "--core", "--percentile-mode",
             "--json"],
        ),
        (
            "provision-carbon-aware",
            ["--carbon", "--deferrable", "--policies", "--power-caps",
             "--deferral-horizons", "--target-availability", "--r-min",
             "--r-max", "--r-tol", "--max-evals", "--core",
             "--percentile-mode", "--json"],
        ),
        ("observe", ["--json"]),
        ("bench", ["--quick", "--scenarios", "--output", "--compare"]),
    ],
)
def test_documented_flags_exist(subcommand, flags):
    """Flags docs/cli.md teaches must exist on the parser, and the
    parser's fault/hedging flags must be taught."""
    sub = _subcommands()[subcommand]
    known = {s for a in sub._actions for s in a.option_strings}
    cli_md = (REPO / "docs" / "cli.md").read_text()
    for flag in flags:
        assert flag in known, f"{subcommand} lost documented flag {flag}"
        assert flag in cli_md, f"docs/cli.md does not mention {subcommand} {flag}"


def test_faults_grammar_docs_match_parser():
    """Every stochastic key and entry kind the grammar accepts is in
    docs/cli.md, and the doc's canonical examples actually parse."""
    from repro.fleet.faults import _STOCHASTIC_KEYS, FaultSchedule

    cli_md = (REPO / "docs" / "cli.md").read_text()
    for key in _STOCHASTIC_KEYS:
        assert f"{key}=" in cli_md, f"docs/cli.md misses stochastic key {key}"
    for token in ("crash@", "blip@", "slow@", "domain:size=", "domain:"):
        assert token in cli_md
    for example in (
        "crash@2:0+1,slow@1:3*2.5+2",
        "domain:0-9;crash@5s:dom0",
        "domain:size=4;random:domain_mtbf=30,domain_mttr=1",
        "random:crash_mtbf=20,mttr=2,slow_mtbf=15",
    ):
        assert example in cli_md, f"docs/cli.md lost the example {example!r}"
        FaultSchedule.parse(example)  # must stay valid grammar


def test_arrivals_grammar_docs_match_parser():
    """Every arrival shape the grammar accepts is taught in docs/cli.md,
    and the doc's canonical examples actually parse and build."""
    from repro.sim import QueryWorkload
    from repro.traces import parse_arrivals
    from repro.traces.spec import _SHAPES

    cli_md = (REPO / "docs" / "cli.md").read_text()
    for shape in _SHAPES:
        assert f"`{shape}`" in cli_md, f"docs/cli.md misses arrival shape {shape}"
    workload = QueryWorkload.for_model(100)
    for example in (
        "poisson:level=0.75",
        "mmpp:levels=0.3/2.0,dwell=1.5/0.2",
        "diurnal:steps=48,noise=0.15",
        "diurnal:noise=0.15+mmpp:levels=0/1.2,dwell=3/0.25",
    ):
        assert example in cli_md, f"docs/cli.md lost the example {example!r}"
        parse_arrivals(example).build(workload, 1000.0, 4.0)  # must stay valid


def test_carbon_grammar_docs_match_parser():
    """Every carbon shape and every deferrable-spec key the grammar
    accepts is taught in docs/carbon.md, every deferrable policy is
    named, and the doc's canonical examples actually parse and build."""
    from repro.carbon import DEFERRABLE_POLICIES, parse_carbon, parse_deferrable
    from repro.carbon.spec import _CARBON_SHAPES, _JOBS_KEYS

    carbon_md = (REPO / "docs" / "carbon.md").read_text()
    cli_md = (REPO / "docs" / "cli.md").read_text()
    for shape in _CARBON_SHAPES:
        assert f"`{shape}`" in carbon_md, (
            f"docs/carbon.md misses carbon shape {shape}"
        )
    for key in _JOBS_KEYS:
        assert f"{key}=" in carbon_md, (
            f"docs/carbon.md misses deferrable key {key}"
        )
    for policy in DEFERRABLE_POLICIES:
        assert f"`{policy}`" in carbon_md, (
            f"docs/carbon.md misses policy {policy}"
        )
    for example in (
        "diurnal:base=350,swing=150",
        "step:levels=400/120/400,at=0/3600/7200",
        "constant:intensity=100+diurnal:base=200,swing=180",
    ):
        for doc, name in ((carbon_md, "docs/carbon.md"), (cli_md, "docs/cli.md")):
            assert example in doc, f"{name} lost the example {example!r}"
        parse_carbon(example).build()  # must stay valid grammar
    for example in (
        "jobs:count=4,duration=600,power=800,slack=2",
        "jobs:count=2,duration=300,power=500,start=600,every=1800",
    ):
        assert example in carbon_md, (
            f"docs/carbon.md lost the example {example!r}"
        )
        parse_deferrable(example).build(86400.0)


def test_no_compiled_artifacts_tracked():
    """No __pycache__ directory or .pyc file may ever be committed.

    A compiled artifact once slipped into the tree alongside its
    source; this guard (plus the .gitignore entries) keeps the mistake
    from recurring.  Skipped when git is unavailable (e.g. an sdist).
    """
    import subprocess

    if not (REPO / ".git").exists():
        pytest.skip("not a git checkout")
    try:
        tracked = subprocess.run(
            ["git", "ls-files"],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        ).stdout.splitlines()
    except (OSError, subprocess.SubprocessError):
        pytest.skip("git unavailable")
    offenders = [
        path
        for path in tracked
        if "__pycache__" in path or path.endswith((".pyc", ".pyo"))
    ]
    assert not offenders, f"compiled artifacts tracked in git: {offenders}"
    gitignore = (REPO / ".gitignore").read_text()
    assert "__pycache__/" in gitignore and "*.pyc" in gitignore


def test_readme_names_tier1_verify():
    """The README's verify command is the ROADMAP's tier-1 lane."""
    readme = (REPO / "README.md").read_text()
    assert "python -m pytest -x -q" in readme
    assert "PYTHONPATH=src" in readme
