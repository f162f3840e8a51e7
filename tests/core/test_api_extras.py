"""Tests for the client facade's paged listing."""

import pytest

from repro import MantleClient


@pytest.fixture()
def client():
    c = MantleClient()
    yield c
    c.close()


class TestPagedListing:
    def test_pages_cover_all_entries_in_order(self, client):
        client.mkdir("/big")
        names = [f"e{i:03d}" for i in range(25)]
        for name in names:
            client.create(f"/big/{name}")
        collected = []
        start_after = None
        while True:
            page = client.listdir_page("/big", limit=10,
                                       start_after=start_after)
            collected.extend(page)
            if len(page) < 10:
                break
            start_after = page[-1]
        assert collected == names

    def test_page_size_respected(self, client):
        client.mkdir("/p")
        for i in range(7):
            client.create(f"/p/o{i}")
        assert len(client.listdir_page("/p", limit=3)) == 3

    def test_empty_directory_single_empty_page(self, client):
        client.mkdir("/empty")
        assert client.listdir_page("/empty", limit=5) == []

