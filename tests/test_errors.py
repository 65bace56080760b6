"""Exception-taxonomy contract: hierarchy and back-compat aliases."""

import pytest

from repro.errors import (
    AnalysisError,
    BadRequestError,
    PayloadTooLargeError,
    ReproError,
    ServeError,
    TCIndexError,
)


class TestTaxonomy:
    def test_all_library_errors_are_repro_errors(self):
        for cls in (AnalysisError, BadRequestError, ServeError, TCIndexError):
            assert issubclass(cls, ReproError)

    def test_bad_request_is_a_serve_error(self):
        assert issubclass(BadRequestError, ServeError)

    def test_payload_too_large_is_a_bad_request(self):
        assert issubclass(PayloadTooLargeError, BadRequestError)


class TestIndexErrorRename:
    def test_old_name_still_imports(self):
        import repro.errors as errors

        with pytest.warns(DeprecationWarning, match="TCIndexError"):
            legacy = errors.IndexError_
        assert legacy is TCIndexError

    def test_unknown_attribute_raises(self):
        import repro.errors as errors

        with pytest.raises(AttributeError, match="no attribute"):
            errors.not_a_real_name  # noqa: B018 — attribute access is the test
