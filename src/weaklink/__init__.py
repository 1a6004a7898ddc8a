"""weaklink: registry-metadata scanner for supply-chain weak link signals."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    FixtureError,
    NoVersionsError,
    ParseError,
    PlanError,
    ScannerError,
)
from .ingest import Corpus, extract_email_domain, load_corpus  # noqa: F401
from .signals import AnalyzerConfig, Findings, ScriptCategory, ScriptPattern, SignalRows, classify_script  # noqa: F401
