//! `LCL_SERVER_BACKEND` must name a backend: a typo is an error, not a
//! silent fallback that would run the other backend's suites twice.
//!
//! This is its own test binary because it sets a process-wide environment
//! variable that every `Server::bind` reads.

use lcl_paths::Engine;
use lcl_server::{Server, Service, BACKEND_ENV_VAR};
use std::io;
use std::sync::Arc;

#[test]
fn unknown_backend_name_in_the_environment_fails_bind() {
    let service = Arc::new(Service::new(Engine::builder().parallelism(1).build()));

    std::env::set_var(BACKEND_ENV_VAR, "thredas");
    let err = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect_err("a typo must not bind");
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    assert!(
        err.to_string().contains("thredas"),
        "names the value: {err}"
    );

    // Known names bind; one this platform lacks still falls back at start.
    for name in ["threads", " reactor "] {
        std::env::set_var(BACKEND_ENV_VAR, name);
        let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0")
            .unwrap_or_else(|e| panic!("{name:?} binds: {e}"))
            .start()
            .expect("start");
        handle.shutdown();
    }
}
