import importlib.util
import pathlib
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load("traffic", ROOT / "tools" / "traffic.py")

TOY = textwrap.dedent(
    """\
    def sign(x):
        if x < 0:
            return -1
        return 1


    def unused():
        return 0


    class Box:
        size = 2

        def items(self):
            return [v for v in range(self.size)]
    """
)


def test_collector_reports_the_statements_no_call_executed(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    toy = _load("toy", path)
    # function bodies only: the module and class bodies ran on import
    assert tool.statement_lines(path) == {1, 2, 3, 4, 7, 8, 14, 15}
    before = sys.gettrace()
    collector = tool.LineCollector([str(path)])
    with collector:
        toy.sign(2)
        toy.Box().items()
    assert sys.gettrace() is before
    assert collector.unexecuted() == {str(path): [3, 7, 8]}
    with collector:  # a second pass adds to the first
        toy.sign(-2)
    assert collector.unexecuted() == {str(path): [7, 8]}
