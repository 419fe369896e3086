import shutil

import pytest

from xmlauthz.cli import main

from conftest import fixture


@pytest.fixture
def workdir(tmp_path):
    for name in ("department.xml", "department_paths.txt", "auth1.xml", "auth2.xml"):
        shutil.copy(fixture(name), tmp_path / name)
    return tmp_path


def run_compile(workdir, *rule_files, source="--paths-doc"):
    src = "department.xml" if source == "--paths-doc" else "department_paths.txt"
    argv = ["compile", source, str(workdir / src), "--xat", str(workdir / "xat.csv")]
    for rf in rule_files:
        argv += ["--rules", str(workdir / rf)]
    return main(argv)


class TestCompile:
    def test_auth1_writes_12_rows(self, workdir):
        assert run_compile(workdir, "auth1.xml") == 0
        lines = (workdir / "xat.csv").read_text().splitlines()
        assert len(lines) == 13

    def test_incremental_auth2(self, workdir):
        run_compile(workdir, "auth1.xml")
        assert run_compile(workdir, "auth2.xml") == 0
        got = (workdir / "xat.csv").read_text()
        assert got == open(fixture("table2_expected.csv")).read()

    def test_both_documents_in_one_run(self, workdir):
        assert run_compile(workdir, "auth1.xml", "auth2.xml") == 0
        got = (workdir / "xat.csv").read_text()
        assert got == open(fixture("table2_expected.csv")).read()

    def test_zero_rule_files(self, workdir):
        run_compile(workdir, "auth1.xml")
        before = (workdir / "xat.csv").read_text()
        assert run_compile(workdir) == 0
        assert (workdir / "xat.csv").read_text() == before

    def test_paths_list_source_equivalent(self, workdir):
        run_compile(workdir, "auth1.xml")
        doc_output = (workdir / "xat.csv").read_text()
        (workdir / "xat.csv").unlink()
        assert run_compile(workdir, "auth1.xml", source="--paths-list") == 0
        assert (workdir / "xat.csv").read_text() == doc_output

    def test_parse_failure_leaves_xat_untouched(self, workdir):
        run_compile(workdir, "auth1.xml")
        before = (workdir / "xat.csv").read_text()
        (workdir / "broken.xml").write_text("<rules><rule></rules>")
        assert run_compile(workdir, "broken.xml") == 2
        assert (workdir / "xat.csv").read_text() == before

    def test_determinism(self, workdir):
        run_compile(workdir, "auth1.xml", "auth2.xml")
        first = (workdir / "xat.csv").read_text()
        (workdir / "xat.csv").unlink()
        run_compile(workdir, "auth1.xml", "auth2.xml")
        assert (workdir / "xat.csv").read_text() == first


class TestCheck:
    @pytest.fixture(autouse=True)
    def compiled(self, workdir):
        run_compile(workdir, "auth1.xml", "auth2.xml")

    def check(self, workdir, subject, query):
        return main([
            "check",
            "--paths-doc", str(workdir / "department.xml"),
            "--xat", str(workdir / "xat.csv"),
            "--subject", subject,
            "--query", query,
        ])

    def test_granted(self, workdir, capsys):
        assert self.check(workdir, "staff", "//gpa") == 0
        out = capsys.readouterr().out
        assert out.count(".>= 2.0") == 2

    def test_all_denied(self, workdir):
        assert self.check(workdir, "staff", "//undergradstudent/address/city") == 3

    def test_no_match(self, workdir):
        assert self.check(workdir, "staff", "//nothing") == 4

    def test_syntax_error(self, workdir):
        assert self.check(workdir, "staff", "///") == 2


class TestPaths:
    def test_department_count(self, workdir, capsys):
        assert main([
            "paths", "--paths-doc", str(workdir / "department.xml"), "--count",
        ]) == 0
        assert capsys.readouterr().out.strip() == "39"

    def test_single_element_doc(self, tmp_path, capsys):
        doc = tmp_path / "tiny.xml"
        doc.write_text("<a/>")
        assert main(["paths", "--paths-doc", str(doc)]) == 0
        assert capsys.readouterr().out.strip() == "/a"

    def test_list_source_echoes_closure(self, tmp_path, capsys):
        listing = tmp_path / "paths.txt"
        listing.write_text("/a/b/c\n")
        assert main(["paths", "--paths-list", str(listing)]) == 0
        assert capsys.readouterr().out.splitlines() == ["/a", "/a/b", "/a/b/c"]

    def test_usage_error(self):
        assert main(["paths"]) == 2


class TestDeepDocument:
    """A document nested 5000 elements deep: 4999 ``n`` elements around an
    ``a`` leaf that carries one attribute, so 5001 paths."""

    @pytest.fixture
    def deep_doc(self, tmp_path):
        doc = tmp_path / "deep.xml"
        doc.write_text("<n>" * 4999 + '<a k="1"/>' + "</n>" * 4999)
        return doc

    def test_paths_count(self, deep_doc, capsys):
        assert main(["paths", "--paths-doc", str(deep_doc), "--count"]) == 0
        assert capsys.readouterr().out.strip() == "5001"

    def test_compile_descendant_rule(self, deep_doc, tmp_path):
        rules = tmp_path / "rules.xml"
        rules.write_text(
            "<rules><rule><subject>staff</subject><object>//a</object>"
            "<action>select</action><type>R</type><mode>grant</mode></rule></rules>"
        )
        xat = tmp_path / "xat.csv"
        argv = ["compile", "--paths-doc", str(deep_doc), "--xat", str(xat), "--rules", str(rules)]
        assert main(argv) == 0
        leaf = "/n" * 4999 + "/a"
        assert xat.read_text().splitlines()[1:] == [
            "staff,%s,-,Select" % leaf,
            "staff,%s/@k,-,Select" % leaf,
        ]
