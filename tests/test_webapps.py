"""Tests for the web-application models."""

import pytest

from repro.net import Address, FixedLatency, HttpNode, Network
from repro.simcore import Rng, Simulator
from repro.webapps import Gmail, GoogleDrive, GoogleSheets, WeatherService


@pytest.fixture
def cloud():
    sim = Simulator()
    net = Network(sim, Rng(21))
    gmail = net.add_node(Gmail(Address("gmail.cloud"), service_time=0.0))
    drive = net.add_node(GoogleDrive(Address("drive.cloud"), service_time=0.0))
    sheets = net.add_node(GoogleSheets(Address("sheets.cloud"), service_time=0.0))
    weather = net.add_node(WeatherService(Address("weather.cloud"), service_time=0.0))
    client = net.add_node(HttpNode(Address("client.cloud")))
    for app in (gmail, drive, sheets, weather):
        net.connect(client.address, app.address, FixedLatency(0.01))
    net.connect(sheets.address, gmail.address, FixedLatency(0.01))
    return sim, client, gmail, drive, sheets, weather


class TestGmail:
    def test_deliver_and_inbox(self, cloud):
        _, _, gmail, _, _, _ = cloud
        gmail.deliver_email("alice@g", "bob@x", "hello")
        assert [m.subject for m in gmail.inbox("alice@g")] == ["hello"]

    def test_messages_since_cursor(self, cloud):
        _, _, gmail, _, _, _ = cloud
        first = gmail.deliver_email("a@g", "s@x", "one")
        gmail.deliver_email("a@g", "s@x", "two")
        newer = gmail.messages_since("a@g", since_id=first.msg_id)
        assert [m.subject for m in newer] == ["two"]

    def test_attachment_filter(self, cloud):
        _, _, gmail, _, _, _ = cloud
        gmail.deliver_email("a@g", "s@x", "plain")
        gmail.deliver_email("a@g", "s@x", "report", attachments=("r.pdf",))
        got = gmail.messages_since("a@g", 0, with_attachments=True)
        assert [m.subject for m in got] == ["report"]
        assert got[0].has_attachments()

    def test_send_endpoint_delivers_locally(self, cloud):
        sim, client, gmail, _, _, _ = cloud
        client.post(gmail.address, "/api/send",
                    body={"to": "a@g", "from": "b@g", "subject": "api mail"})
        sim.run()
        assert gmail.inbox("a@g")[0].subject == "api mail"

    def test_send_endpoint_validates(self, cloud):
        sim, client, gmail, _, _, _ = cloud
        got = []
        client.post(gmail.address, "/api/send", body={"to": "a@g"}, on_response=got.append)
        sim.run()
        assert got[0].status == 400

    def test_messages_endpoint(self, cloud):
        sim, client, gmail, _, _, _ = cloud
        gmail.deliver_email("a@g", "s@x", "hello", attachments=("f.txt",))
        got = []
        client.get(gmail.address, "/api/messages", body={"user": "a@g", "since_id": 0},
                   on_response=got.append)
        sim.run()
        messages = got[0].body["messages"]
        assert messages[0]["subject"] == "hello"
        assert messages[0]["attachments"] == ["f.txt"]

    def test_activity_log_records_delivery(self, cloud):
        _, _, gmail, _, _, _ = cloud
        gmail.deliver_email("a@g", "s@x", "hello")
        assert gmail.activity_since(0, activity="email_received")


class TestGoogleDrive:
    def test_upload_and_list(self, cloud):
        _, _, _, drive, _, _ = cloud
        drive.upload("me", "a.pdf", folder="/ifttt")
        drive.upload("me", "b.pdf", folder="/other")
        assert [f.name for f in drive.files("me", folder="/ifttt")] == ["a.pdf"]
        assert len(drive.files("me")) == 2

    def test_upload_endpoint(self, cloud):
        sim, client, _, drive, _, _ = cloud
        got = []
        client.post(drive.address, "/api/upload",
                    body={"user": "me", "name": "x.pdf"}, on_response=got.append)
        sim.run()
        assert got[0].ok
        assert drive.files("me")[0].name == "x.pdf"

    def test_upload_endpoint_validates(self, cloud):
        sim, client, _, drive, _, _ = cloud
        got = []
        client.post(drive.address, "/api/upload", body={"user": "me"}, on_response=got.append)
        sim.run()
        assert got[0].status == 400

    def test_files_endpoint_since_cursor(self, cloud):
        sim, client, _, drive, _, _ = cloud
        first = drive.upload("me", "a.pdf")
        drive.upload("me", "b.pdf")
        got = []
        client.get(drive.address, "/api/files",
                   body={"user": "me", "since_id": first.file_id}, on_response=got.append)
        sim.run()
        assert [f["name"] for f in got[0].body["files"]] == ["b.pdf"]


class TestGoogleSheets:
    def test_append_and_read(self, cloud):
        _, _, _, _, sheets, _ = cloud
        assert sheets.append_row("log", ["a", 1]) == 1
        assert sheets.append_row("log", ["b", 2]) == 2
        assert sheets.rows("log") == [["a", 1], ["b", 2]]
        assert sheets.rows("log", since_row=1) == [["b", 2]]

    def test_row_count_unknown_sheet(self, cloud):
        _, _, _, _, sheets, _ = cloud
        assert sheets.row_count("nope") == 0

    def test_http_append_and_read(self, cloud):
        sim, client, _, _, sheets, _ = cloud
        got = []
        client.post(sheets.address, "/api/sheets/songs/rows",
                    body={"cells": ["song 1"]}, on_response=got.append)
        sim.run()
        assert got[0].body == {"row": 1}
        got2 = []
        client.get(sheets.address, "/api/sheets/songs/rows",
                   body={"since_row": 0}, on_response=got2.append)
        sim.run()
        assert got2[0].body["rows"] == [["song 1"]]

    def test_append_validates_cells(self, cloud):
        sim, client, _, _, sheets, _ = cloud
        got = []
        client.post(sheets.address, "/api/sheets/s/rows", body={"cells": "oops"},
                    on_response=got.append)
        sim.run()
        assert got[0].status == 400

    def test_notification_feature_emails_owner(self, cloud):
        sim, _, gmail, _, sheets, _ = cloud
        sheets.enable_notifications("log", gmail.address, "owner@g")
        sheets.append_row("log", ["x"])
        sim.run()
        inbox = gmail.inbox("owner@g")
        assert len(inbox) == 1
        assert "modified" in inbox[0].subject


class TestWeather:
    def test_set_and_current(self, cloud):
        _, _, _, _, _, weather = cloud
        assert weather.set_conditions("home", "rain") is True
        assert weather.set_conditions("home", "rain") is False  # no change
        assert weather.current("home") == "rain"

    def test_unknown_condition_rejected(self, cloud):
        _, _, _, _, _, weather = cloud
        with pytest.raises(ValueError):
            weather.set_conditions("home", "frogs")

    def test_changes_endpoint(self, cloud):
        sim, client, _, _, _, weather = cloud
        weather.set_conditions("home", "clear")
        weather.set_conditions("home", "rain")
        got = []
        client.get(weather.address, "/api/changes",
                   body={"location": "home", "since_id": 0}, on_response=got.append)
        sim.run()
        conditions = [c["condition"] for c in got[0].body["changes"]]
        assert conditions == ["clear", "rain"]
