"""The HTTP API + typed client against an in-process ODService."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.core.fastod import FastOD
from repro.relation.csvio import write_csv
from repro.server import ODService, ServiceClient, ServiceClientError
from tests.conftest import make_relation


@pytest.fixture(scope="module")
def service():
    with ODService(port=0, workers=1) as running:
        yield running


@pytest.fixture
def client(service):
    return ServiceClient(service.url)


def small():
    return make_relation(3, [(1, 10, 5), (2, 20, 5), (3, 30, 5),
                             (3, 30, 5)])


class TestHealthAndRegistration:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert "catalog" in health and "scheduler" in health

    def test_register_rows(self, client):
        entry = client.register_rows(
            ["a", "b"], [[1, 2], [3, 4]], name="pairs")
        assert entry["name"] == "pairs"
        assert entry["n_rows"] == 2
        assert client.dataset(entry["fingerprint"])["name"] == "pairs"

    def test_register_csv_path(self, client, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(small(), path)
        entry = client.register_csv(path)
        assert entry["n_rows"] == 4
        assert entry["attributes"] == ["c0", "c1", "c2"]

    def test_register_dataset_family(self, client):
        entry = client.register_dataset("flight", n_rows=40,
                                        n_attrs=4, seed=5)
        assert entry["n_rows"] == 40
        assert any(d["fingerprint"] == entry["fingerprint"]
                   for d in client.datasets())

    def test_register_without_source_is_400(self, client):
        with pytest.raises(ServiceClientError) as caught:
            client._post("/datasets", {"name": "empty"})
        assert caught.value.status == 400

    def test_unknown_fingerprint_is_404(self, client):
        with pytest.raises(ServiceClientError) as caught:
            client.dataset("feedface")
        assert caught.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceClientError) as caught:
            client._get("/nope")
        assert caught.value.status == 404


class TestDiscoverOverHttp:
    def test_discover_and_cached_repeat(self, client):
        relation = small()
        fp = client.register_rows(
            list(relation.names),
            [list(map(int, row)) for row in relation.rows()]
        )["fingerprint"]
        job = client.discover(fp)
        assert job["status"] == "done", job.get("error")
        assert job["cached"] is False
        direct = FastOD(relation).run().to_dict()
        assert job["result"]["fds"] == direct["fds"]
        assert job["result"]["ocds"] == direct["ocds"]

        repeat = client.discover(fp)
        assert repeat["cached"] is True
        assert repeat["executor"]["phases"] == {}
        assert repeat["result"]["fds"] == direct["fds"]
        assert client.results(fp)[0]["fingerprint"] == fp

    def test_async_submit_and_poll(self, client):
        fp = client.register_dataset("flight", n_rows=60, n_attrs=4,
                                     seed=11)["fingerprint"]
        job = client.discover(fp, wait=False,
                              config={"max_level": 2})
        final = client.poll(job["id"], timeout=60)
        assert final["status"] == "done"
        assert final["id"] in {j["id"] for j in client.jobs()}

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceClientError) as caught:
            client.job("job-9999")
        assert caught.value.status == 404

    def test_bad_config_is_400_not_404(self, client):
        fp = client.register_rows(
            ["k", "v"], [[1, 2], [3, 4]])["fingerprint"]
        with pytest.raises(ServiceClientError) as caught:
            client.discover(fp, config={"workerz": 1})
        assert caught.value.status == 400
        assert "unknown config field" in str(caught.value)

    @pytest.mark.parametrize("config", [
        {"kernel_backend": "bogus"}, {"workers": "two"},
        {"max_level": "x"}])
    def test_mistyped_config_is_400_at_submit(self, client, config):
        fp = client.register_rows(
            ["k", "v"], [[1, 2], [3, 4]])["fingerprint"]
        with pytest.raises(ServiceClientError) as caught:
            client.discover(fp, config=config)
        assert caught.value.status == 400
        assert "bad config" in str(caught.value)

    def test_deep_results_path_is_404(self, client):
        with pytest.raises(ServiceClientError) as caught:
            client._get("/results/somefp/extra")
        assert caught.value.status == 404

    def test_duplicate_registration_returns_200_not_201(self, service):
        body = json.dumps({"columns": ["r", "s"],
                           "rows": [[1, 9], [2, 8]]}).encode()
        statuses = []
        for _ in range(2):
            request = urllib.request.Request(
                service.url + "/datasets", data=body, method="POST",
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=30) as resp:
                statuses.append(resp.status)
        assert statuses == [201, 200]


class TestValidateViolationsAppend:
    def test_validate_and_violations(self, client):
        fp = client.register_rows(
            ["x", "y"], [[1, 2], [2, 1]])["fingerprint"]
        ok = client.validate(fp, "{}: [] -> x")
        assert ok["status"] == "done"
        assert ok["report"]["holds"] is False
        bad = client.violations(fp, "[x] ~ [y]", witnesses=3)
        assert bad["report"]["n_violating_pairs"] == 1
        assert bad["report"]["witnesses"]

    def test_append_flow(self, client):
        # distinct attribute names: the fingerprint keys a
        # discovery-equivalence class, and [[1, 10], [2, 20]] under
        # ["a", "b"] would dedupe onto test_register_rows's entry —
        # whose raw values would then seed the append
        fp = client.register_rows(
            ["base", "delta"], [[1, 10], [2, 20]])["fingerprint"]
        appended = client.append(fp, [[3, 5]])
        assert appended["status"] == "done", appended.get("error")
        new_fp = appended["fingerprint"]
        assert new_fp != fp
        # the swap landed: the OCD was invalidated incrementally
        assert ("{}: base ~ delta"
                in appended["report"]["invalidated"])
        # old fingerprint forwards to the grown entry
        assert client.dataset(fp)["fingerprint"] == new_fp
        assert client.dataset(fp)["n_rows"] == 3
        # a discover on the grown content is served from the store
        assert client.discover(new_fp)["cached"] is True

    def test_bad_dependency_fails_job(self, client):
        fp = client.register_rows(
            ["a", "b"], [[1, 10], [2, 20]])["fingerprint"]
        job = client.validate(fp, "this is not a dependency")
        assert job["status"] == "failed"
        assert "error" in job

    @pytest.mark.parametrize("kind", ["validate", "violations"])
    def test_unknown_attribute_fails_with_schema_error(self, client,
                                                       kind):
        fp = client.register_rows(
            ["a", "b"], [[1, 10], [2, 20]])["fingerprint"]
        job = client.submit(kind, fp, wait=True,
                            dependency="{nosuch}: [] -> a")
        assert job["status"] == "failed"
        assert job["error"] == (
            "SchemaError: unknown attribute(s) nosuch in "
            "{nosuch}: [] -> a; the relation has a, b")


class TestRawHttp:
    def test_plain_curl_shaped_request(self, service):
        """The documented curl flow: plain JSON over POST, no client."""
        body = json.dumps({
            "columns": ["p", "q"],
            "rows": [[1, 1], [2, 2]],
        }).encode()
        request = urllib.request.Request(
            service.url + "/datasets", data=body, method="POST",
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status in (200, 201)
            entry = json.loads(response.read())
        assert entry["n_rows"] == 2

    def test_invalid_json_is_400(self, service):
        request = urllib.request.Request(
            service.url + "/datasets", data=b"{oops", method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=30)
        assert caught.value.code == 400
