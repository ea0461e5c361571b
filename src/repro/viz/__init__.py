"""ASCII visualizations of the paper's illustrative figures."""

from repro._exports import lazy_exports

_EXPORTS = {
    "ranking_agreement_chart": ".chart",
    "stacked_bar_chart": ".chart",
    "render_layout_grid": ".layout_art",
    "layout_gallery": ".layout_art",
    "render_search_trace": ".search_art",
    "TraceRecorder": ".search_art",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
