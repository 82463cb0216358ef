"""The golden corpus (tests/golden/): every recorded CLI run, rerun
in-process, exits with the recorded code and prints output with the recorded
digest."""

from golden import generate


def test_corpus_lists_the_generated_cases():
    lines = generate.CASES.read_text().splitlines()
    assert [line.split(" ", 2)[2].split() for line in lines] == \
        list(generate.cases())
    assert {line.split()[0] for line in lines} == {"0", "1", "2", "3"}


def test_every_case_reproduces(tmp_path, monkeypatch):
    generate.write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    lines = generate.CASES.read_text().splitlines()
    changed = [(line, new) for line, argv in zip(lines, generate.cases())
               if (new := generate.format_case(
                   argv, *generate.run_case(argv))) != line]
    assert not changed, f"{len(changed)} of {len(lines)} cases changed:\n" + \
        "\n".join(f"- {old}\n+ {new}" for old, new in changed[:10])
