"""Table 1 reproduction: benchmark properties (domain size, data size).

Paper (DATE'05, Table 1)::

    Benchmark   Domain Size   Data Size
    Med-Im04        258        825.55KB
    MxM              34      1,173.56KB
    Radar           422        905.28KB
    Shape           656      1,284.06KB
    Track           388        744.80KB

The benchmarked operation is the constraint-network construction
itself (program -> CN), which is what "domain size" measures the output
of.  The reproduced rows print at the end of the module.
"""

import pytest

from repro.bench import TABLE1_REFERENCE, BENCHMARK_NAMES, benchmark_build_options
from repro.opt.network_builder import build_layout_network
from repro.opt.report import format_table

_rows = {}


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_network_construction(benchmark, name, programs):
    """Time CN construction and record Table 1 characteristics."""
    program = programs[name]
    options = benchmark_build_options()
    result = benchmark(build_layout_network, program, options)
    paper_domain, paper_kb = TABLE1_REFERENCE[name]
    measured_kb = program.total_data_bytes() / 1024
    _rows[name] = [
        name,
        paper_domain,
        result.domain_size,
        f"{paper_kb:.2f}",
        f"{measured_kb:.2f}",
        len(result.network.variables),
        len(result.network.constraints),
    ]
    # Data size must track the paper closely; domain size is expected
    # to land in the same regime (test_print_table1 prints both).
    assert measured_kb == pytest.approx(paper_kb, rel=0.05)
    assert result.domain_size > 0


def test_print_table1(benchmark, programs):
    """Emit the reproduced Table 1 (run with -s to see it)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert len(_rows) == len(BENCHMARK_NAMES)
    print("\n\n=== Table 1 reproduction ===")
    print(
        format_table(
            [
                "Benchmark",
                "paper domain",
                "ours domain",
                "paper KB",
                "ours KB",
                "arrays",
                "constraints",
            ],
            [_rows[name] for name in BENCHMARK_NAMES],
        )
    )
